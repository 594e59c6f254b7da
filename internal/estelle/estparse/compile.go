package estparse

import (
	"fmt"
	"time"

	"xmovie/internal/estelle"
)

// Compiled is an executable specification: module definitions built from
// the AST plus the configuration needed to instantiate the system.
type Compiled struct {
	Spec     *Spec
	Channels map[string]*estelle.ChannelDef
	// Defs maps body name to the runnable module definition.
	Defs map[string]*estelle.ModuleDef
	// Externals must be supplied for modules declared `external` before
	// Build is called: module name -> body factory.
	Externals map[string]func() estelle.Body
}

// Compile turns a parsed Spec into runnable module definitions driven by
// the AST interpreter. The defs dispatch through the transition table; a
// caller may set another strategy on a def before Build.
func Compile(spec *Spec) (*Compiled, error) {
	c := &Compiled{
		Spec:      spec,
		Channels:  make(map[string]*estelle.ChannelDef),
		Defs:      make(map[string]*estelle.ModuleDef),
		Externals: make(map[string]func() estelle.Body),
	}
	for _, ch := range spec.Channels {
		def := &estelle.ChannelDef{
			Name:   ch.Name,
			RoleA:  ch.RoleA,
			RoleB:  ch.RoleB,
			ByRole: make(map[string][]estelle.MsgDef),
		}
		for role, msgs := range ch.ByRole {
			for _, m := range msgs {
				md := estelle.MsgDef{Name: m.Name}
				for _, p := range m.Params {
					md.Params = append(md.Params, estelle.ParamDef{Name: p.Name, Type: p.Type})
				}
				def.ByRole[role] = append(def.ByRole[role], md)
			}
		}
		c.Channels[ch.Name] = def
	}
	mods := make(map[string]*Module)
	for _, m := range spec.Modules {
		mods[m.Name] = m
	}
	for _, b := range spec.Bodies {
		def, err := c.compileBody(mods[b.Module], b)
		if err != nil {
			return nil, err
		}
		c.Defs[b.Name] = def
	}
	return c, nil
}

func attrOf(s string) estelle.Attr {
	switch s {
	case "systemprocess":
		return estelle.SystemProcess
	case "systemactivity":
		return estelle.SystemActivity
	case "process":
		return estelle.Process
	default:
		return estelle.Activity
	}
}

// paramsOf returns the parameter names of msg as sent by the peer of role
// on channel ch (the direction a when-clause receives).
func (c *Compiled) paramsOf(mod *Module, ipName, msgName string) []string {
	for _, ip := range mod.IPs {
		if ip.Name != ipName {
			continue
		}
		ch := c.Channels[ip.Channel]
		peer, err := ch.Peer(ip.Role)
		if err != nil {
			return nil
		}
		if md, ok := ch.Msg(peer, msgName); ok {
			names := make([]string, len(md.Params))
			for i, p := range md.Params {
				names[i] = p.Name
			}
			return names
		}
	}
	return nil
}

func (c *Compiled) compileBody(mod *Module, b *Body) (*estelle.ModuleDef, error) {
	if mod == nil {
		return nil, fmt.Errorf("estelle: body %s has no module", b.Name)
	}
	def := &estelle.ModuleDef{
		Name:   mod.Name,
		Attr:   attrOf(mod.Attr),
		States: append([]string(nil), b.States...),
	}
	for _, ip := range mod.IPs {
		ch, ok := c.Channels[ip.Channel]
		if !ok {
			return nil, fmt.Errorf("estelle: module %s: unknown channel %q", mod.Name, ip.Channel)
		}
		def.IPs = append(def.IPs, estelle.IPDef{Name: ip.Name, Channel: ch, Role: ip.Role})
	}
	initTo := b.InitTo
	initBlock := b.InitBlock
	vars := b.Vars
	def.Init = func(ctx *estelle.Ctx) {
		for _, v := range vars {
			ctx.SetVar(v.Name, zeroValue(v.Type))
		}
		if initTo != "" {
			ctx.ToState(initTo)
		}
		if len(initBlock) > 0 {
			env := &evalEnv{ctx: ctx}
			if err := execBlock(env, initBlock); err != nil {
				panic(err)
			}
		}
	}
	for _, tr := range b.Trans {
		et := estelle.Trans{
			Name:     fmt.Sprintf("%s:%d", b.Name, tr.Line),
			From:     append([]string(nil), tr.From...),
			To:       tr.To,
			Priority: tr.Priority,
		}
		var paramNames []string
		if tr.WhenIP != "" {
			et.When = estelle.On(tr.WhenIP, tr.WhenMsg)
			paramNames = c.paramsOf(mod, tr.WhenIP, tr.WhenMsg)
		}
		if tr.Provided != nil {
			cond := tr.Provided
			names := paramNames
			line := tr.Line
			body := b.Name
			et.Provided = func(ctx *estelle.Ctx) bool {
				env := &evalEnv{ctx: ctx, paramNames: names}
				v, err := eval(env, cond)
				if err != nil {
					panic(fmt.Sprintf("estelle: %s line %d: %v", body, line, err))
				}
				bv, ok := v.(bool)
				if !ok {
					panic(fmt.Sprintf("estelle: %s line %d: provided is not boolean", body, line))
				}
				return bv
			}
		}
		if tr.Delay != nil {
			d := tr.Delay
			names := paramNames
			et.Delay = func(ctx *estelle.Ctx) time.Duration {
				env := &evalEnv{ctx: ctx, paramNames: names}
				v, err := eval(env, d)
				if err != nil {
					return 0
				}
				ms, _ := v.(int64)
				return time.Duration(ms) * time.Millisecond
			}
		}
		block := tr.Block
		names := paramNames
		line := tr.Line
		bodyName := b.Name
		et.Action = func(ctx *estelle.Ctx) {
			env := &evalEnv{ctx: ctx, paramNames: names}
			if err := execBlock(env, block); err != nil {
				panic(fmt.Sprintf("estelle: %s line %d: %v", bodyName, line, err))
			}
		}
		def.Trans = append(def.Trans, et)
	}
	return def, nil
}

func zeroValue(typ string) any {
	switch typ {
	case "integer":
		return int64(0)
	case "boolean":
		return false
	default:
		return ""
	}
}

// Build instantiates the specification's configuration section in rt:
// modvar instances, init bindings and connections. It returns the created
// instances keyed by modvar name. External modules take their bodies from
// c.Externals.
func (c *Compiled) Build(rt *estelle.Runtime) (map[string]*estelle.Instance, error) {
	mods := make(map[string]*Module)
	for _, m := range c.Spec.Modules {
		mods[m.Name] = m
	}
	varMods := make(map[string]string)
	insts := make(map[string]*estelle.Instance)
	for _, cs := range c.Spec.Config {
		switch s := cs.(type) {
		case ModVar:
			varMods[s.Name] = s.Module
		case InitStmt:
			def, ok := c.Defs[s.Body]
			if !ok {
				// External body: the implementation is registered from Go
				// (the paper's "interface in Estelle, body in C++").
				modName := varMods[s.Var]
				factory := c.Externals[modName]
				mod := mods[modName]
				if factory == nil || mod == nil || !mod.External {
					return nil, fmt.Errorf("estelle: no compiled body %q and no external registered for %q",
						s.Body, modName)
				}
				extDef := &estelle.ModuleDef{
					Name:     mod.Name,
					Attr:     attrOf(mod.Attr),
					External: factory(),
				}
				for _, ip := range mod.IPs {
					extDef.IPs = append(extDef.IPs, estelle.IPDef{
						Name: ip.Name, Channel: c.Channels[ip.Channel], Role: ip.Role,
					})
				}
				def = extDef
			}
			inst, err := rt.AddSystem(def, s.Var)
			if err != nil {
				return nil, err
			}
			insts[s.Var] = inst
		case ConnectStmt:
			a, ok := insts[s.AVar]
			if !ok {
				return nil, fmt.Errorf("estelle: connect before init of %q", s.AVar)
			}
			b, ok := insts[s.BVar]
			if !ok {
				return nil, fmt.Errorf("estelle: connect before init of %q", s.BVar)
			}
			if err := rt.Connect(a.IP(s.AIP), b.IP(s.BIP)); err != nil {
				return nil, err
			}
		}
	}
	return insts, nil
}

// evalEnv resolves identifiers during interpretation: message parameters
// first (when-clause scope), then module variables.
type evalEnv struct {
	ctx        *estelle.Ctx
	paramNames []string
}

func (e *evalEnv) lookup(name string) (any, bool) {
	if e.ctx.Msg != nil {
		for i, p := range e.paramNames {
			if p == name {
				return normalize(e.ctx.Msg.Arg(i)), true
			}
		}
	}
	v := e.ctx.Var(name)
	if v == nil {
		return nil, false
	}
	return normalize(v), true
}

// normalize coerces runtime values into the interpreter's types.
func normalize(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case []byte:
		return string(x)
	default:
		return v
	}
}

func execBlock(env *evalEnv, stmts []Stmt) error {
	for _, s := range stmts {
		if err := execStmt(env, s); err != nil {
			return err
		}
	}
	return nil
}

func execStmt(env *evalEnv, s Stmt) error {
	switch st := s.(type) {
	case *Assign:
		v, err := eval(env, st.Expr)
		if err != nil {
			return err
		}
		env.ctx.SetVar(st.Name, v)
		return nil
	case *OutputStmt:
		args := make([]any, len(st.Args))
		for i, a := range st.Args {
			v, err := eval(env, a)
			if err != nil {
				return err
			}
			args[i] = v
		}
		env.ctx.Output(st.IP, st.Msg, args...)
		return nil
	case *IfStmt:
		v, err := eval(env, st.Cond)
		if err != nil {
			return err
		}
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("if condition is not boolean")
		}
		if b {
			return execBlock(env, st.Then)
		}
		return execBlock(env, st.Else)
	case *WhileStmt:
		for iter := 0; ; iter++ {
			if iter > 1_000_000 {
				return fmt.Errorf("while loop exceeded one million iterations")
			}
			v, err := eval(env, st.Cond)
			if err != nil {
				return err
			}
			b, ok := v.(bool)
			if !ok {
				return fmt.Errorf("while condition is not boolean")
			}
			if !b {
				return nil
			}
			if err := execBlock(env, st.Body); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func eval(env *evalEnv, e Expr) (any, error) {
	switch x := e.(type) {
	case IntLit:
		return x.Value, nil
	case BoolLit:
		return x.Value, nil
	case StrLit:
		return x.Value, nil
	case Ident:
		v, ok := env.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("undefined identifier %q", x.Name)
		}
		return v, nil
	case Unary:
		v, err := eval(env, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			i, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("unary - on %T", v)
			}
			return -i, nil
		case "not":
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("not on %T", v)
			}
			return !b, nil
		}
		return nil, fmt.Errorf("unknown unary %q", x.Op)
	case Binary:
		l, err := eval(env, x.L)
		if err != nil {
			return nil, err
		}
		// Short-circuit booleans.
		if x.Op == "and" || x.Op == "or" {
			lb, ok := l.(bool)
			if !ok {
				return nil, fmt.Errorf("%s on %T", x.Op, l)
			}
			if x.Op == "and" && !lb {
				return false, nil
			}
			if x.Op == "or" && lb {
				return true, nil
			}
			r, err := eval(env, x.R)
			if err != nil {
				return nil, err
			}
			rb, ok := r.(bool)
			if !ok {
				return nil, fmt.Errorf("%s on %T", x.Op, r)
			}
			return rb, nil
		}
		r, err := eval(env, x.R)
		if err != nil {
			return nil, err
		}
		return evalBinary(x.Op, l, r)
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

func evalBinary(op string, l, r any) (any, error) {
	if li, lok := l.(int64); lok {
		ri, rok := r.(int64)
		if !rok {
			return nil, fmt.Errorf("%q mixes integer and %T", op, r)
		}
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "div":
			if ri == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			return li / ri, nil
		case "mod":
			if ri == 0 {
				return nil, fmt.Errorf("mod by zero")
			}
			return li % ri, nil
		case "=":
			return li == ri, nil
		case "<>":
			return li != ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
	}
	if ls, lok := l.(string); lok {
		rs, rok := r.(string)
		if !rok {
			return nil, fmt.Errorf("%q mixes string and %T", op, r)
		}
		switch op {
		case "+":
			return ls + rs, nil
		case "=":
			return ls == rs, nil
		case "<>":
			return ls != rs, nil
		}
		return nil, fmt.Errorf("operator %q not defined on strings", op)
	}
	if lb, lok := l.(bool); lok {
		rb, rok := r.(bool)
		if !rok {
			return nil, fmt.Errorf("%q mixes boolean and %T", op, r)
		}
		switch op {
		case "=":
			return lb == rb, nil
		case "<>":
			return lb != rb, nil
		}
		return nil, fmt.Errorf("operator %q not defined on booleans", op)
	}
	return nil, fmt.Errorf("operator %q not defined on %T", op, l)
}
