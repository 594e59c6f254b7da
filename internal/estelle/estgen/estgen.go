// Package estgen generates Go source from parsed Estelle specifications —
// the paper's step 2, "Code Generation (C++)", retargeted at Go and this
// repository's estelle runtime. It plays the role of the modified
// Pet/Dingo-based generator of §4.2: specifications become module
// definitions whose guards and actions are compiled code rather than
// interpreted AST, and a Build function reproduces the configuration
// section.
//
// One specification is generated per Go file; the emitted file is
// self-contained apart from the estelle runtime import.
package estgen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"xmovie/internal/estelle/estparse"
)

// Options configure generation.
type Options struct {
	// Package is the Go package name of the emitted file.
	Package string
}

// Generate emits Go source for the specification.
func Generate(spec *estparse.Spec, opts Options) ([]byte, error) {
	if opts.Package == "" {
		opts.Package = "gen"
	}
	g := &generator{spec: spec, opts: opts}
	if err := g.run(); err != nil {
		return nil, err
	}
	src, err := format.Source([]byte(g.b.String()))
	if err != nil {
		// A formatting failure means the generator emitted invalid Go;
		// return the raw text so the caller can diagnose it.
		return []byte(g.b.String()), fmt.Errorf("estgen: generated code does not parse: %w", err)
	}
	return src, nil
}

type generator struct {
	spec *estparse.Spec
	opts Options
	b    strings.Builder

	mods map[string]*estparse.Module
	// scope of the body being generated.
	varTypes map[string]string
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

func (g *generator) run() error {
	g.mods = make(map[string]*estparse.Module)
	for _, m := range g.spec.Modules {
		g.mods[m.Name] = m
	}
	g.pf("// Code generated by estgen from specification %s. DO NOT EDIT.\n", g.spec.Name)
	g.pf("//\n// The generation pipeline is the paper's methodology: Estelle text ->\n")
	g.pf("// parser -> this Go source -> the estelle runtime (its scheduler plays\n")
	g.pf("// the role of the OSF/1 tasks and threads of the original system).\n")
	g.pf("package %s\n\n", g.opts.Package)
	g.pf("import (\n\t\"time\"\n\n\t\"xmovie/internal/estelle\"\n)\n\n")
	g.pf("var _ = time.Millisecond // delay clauses may be absent\n\n")
	g.emitHelpers()
	for _, ch := range g.spec.Channels {
		g.emitChannel(ch)
	}
	for _, b := range g.spec.Bodies {
		if err := g.emitBody(b); err != nil {
			return err
		}
	}
	if err := g.emitBuild(); err != nil {
		return err
	}
	return nil
}

func (g *generator) emitHelpers() {
	g.pf(`// Variable accessors shared by the generated bodies.
func estVarInt(ctx *estelle.Ctx, name string) int64 {
	v, _ := ctx.Var(name).(int64)
	return v
}

func estVarBool(ctx *estelle.Ctx, name string) bool {
	v, _ := ctx.Var(name).(bool)
	return v
}

func estVarStr(ctx *estelle.Ctx, name string) string {
	switch v := ctx.Var(name).(type) {
	case string:
		return v
	case []byte:
		return string(v)
	default:
		return ""
	}
}

func estParamStr(ctx *estelle.Ctx, i int) string {
	switch v := ctx.Msg.Arg(i).(type) {
	case string:
		return v
	case []byte:
		return string(v)
	default:
		return ""
	}
}

`)
}

func (g *generator) emitChannel(ch *estparse.Channel) {
	g.pf("// %sChannel is channel %s(%s, %s) of the specification.\n",
		ch.Name, ch.Name, ch.RoleA, ch.RoleB)
	g.pf("var %sChannel = &estelle.ChannelDef{\n", ch.Name)
	g.pf("\tName:  %q,\n\tRoleA: %q,\n\tRoleB: %q,\n", ch.Name, ch.RoleA, ch.RoleB)
	g.pf("\tByRole: map[string][]estelle.MsgDef{\n")
	roles := make([]string, 0, len(ch.ByRole))
	for role := range ch.ByRole {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	for _, role := range roles {
		g.pf("\t\t%q: {\n", role)
		for _, m := range ch.ByRole[role] {
			g.pf("\t\t\t{Name: %q", m.Name)
			if len(m.Params) > 0 {
				g.pf(", Params: []estelle.ParamDef{")
				for i, p := range m.Params {
					if i > 0 {
						g.pf(", ")
					}
					g.pf("{Name: %q, Type: %q}", p.Name, p.Type)
				}
				g.pf("}")
			}
			g.pf("},\n")
		}
		g.pf("\t\t},\n")
	}
	g.pf("\t},\n}\n\n")
}

func attrExpr(attr string) string {
	switch attr {
	case "systemprocess":
		return "estelle.SystemProcess"
	case "systemactivity":
		return "estelle.SystemActivity"
	case "process":
		return "estelle.Process"
	default:
		return "estelle.Activity"
	}
}

// paramScope returns name->(index,type) for the when-message of a
// transition, resolved through the channel roles.
func (g *generator) paramScope(mod *estparse.Module, ipName, msgName string) map[string][2]string {
	out := make(map[string][2]string)
	for _, ip := range mod.IPs {
		if ip.Name != ipName {
			continue
		}
		for _, ch := range g.spec.Channels {
			if ch.Name != ip.Channel {
				continue
			}
			peer := ch.RoleA
			if ip.Role == ch.RoleA {
				peer = ch.RoleB
			}
			for _, m := range ch.ByRole[peer] {
				if m.Name != msgName {
					continue
				}
				for i, p := range m.Params {
					out[p.Name] = [2]string{fmt.Sprintf("%d", i), p.Type}
				}
			}
		}
	}
	return out
}

func (g *generator) emitBody(b *estparse.Body) error {
	mod := g.mods[b.Module]
	if mod == nil {
		return fmt.Errorf("estgen: body %s for unknown module %s", b.Name, b.Module)
	}
	g.varTypes = make(map[string]string)
	for _, v := range b.Vars {
		g.varTypes[v.Name] = v.Type
	}
	g.pf("// %sDef builds module %s with body %s.\n", b.Name, mod.Name, b.Name)
	g.pf("func %sDef() *estelle.ModuleDef {\n", b.Name)
	g.pf("\treturn &estelle.ModuleDef{\n")
	g.pf("\t\tName:     %q,\n", mod.Name)
	g.pf("\t\tAttr:     %s,\n", attrExpr(mod.Attr))
	if len(mod.IPs) > 0 {
		g.pf("\t\tIPs: []estelle.IPDef{\n")
		for _, ip := range mod.IPs {
			g.pf("\t\t\t{Name: %q, Channel: %sChannel, Role: %q},\n", ip.Name, ip.Channel, ip.Role)
		}
		g.pf("\t\t},\n")
	}
	if len(b.States) > 0 {
		g.pf("\t\tStates: []string{")
		for i, s := range b.States {
			if i > 0 {
				g.pf(", ")
			}
			g.pf("%q", s)
		}
		g.pf("},\n")
	}
	// Init: zero vars, initial state, init block.
	g.pf("\t\tInit: func(ctx *estelle.Ctx) {\n")
	for _, v := range b.Vars {
		g.pf("\t\t\tctx.SetVar(%q, %s)\n", v.Name, zeroLit(v.Type))
	}
	if b.InitTo != "" {
		g.pf("\t\t\tctx.ToState(%q)\n", b.InitTo)
	}
	if len(b.InitBlock) > 0 {
		if err := g.emitStmts(b.InitBlock, nil, 3); err != nil {
			return err
		}
	}
	g.pf("\t\t},\n")
	if len(b.Trans) > 0 {
		g.pf("\t\tTrans: []estelle.Trans{\n")
		for _, tr := range b.Trans {
			if err := g.emitTrans(mod, b, tr); err != nil {
				return err
			}
		}
		g.pf("\t\t},\n")
	}
	g.pf("\t}\n}\n\n")
	return nil
}

func zeroLit(typ string) string {
	switch typ {
	case "integer":
		return "int64(0)"
	case "boolean":
		return "false"
	default:
		return `""`
	}
}

func (g *generator) emitTrans(mod *estparse.Module, b *estparse.Body, tr *estparse.Trans) error {
	var params map[string][2]string
	g.pf("\t\t\t{\n")
	g.pf("\t\t\t\tName: %q,\n", fmt.Sprintf("%s:%d", b.Name, tr.Line))
	if len(tr.From) > 0 {
		g.pf("\t\t\t\tFrom: []string{")
		for i, s := range tr.From {
			if i > 0 {
				g.pf(", ")
			}
			g.pf("%q", s)
		}
		g.pf("},\n")
	}
	if tr.To != "" {
		g.pf("\t\t\t\tTo: %q,\n", tr.To)
	}
	if tr.WhenIP != "" {
		g.pf("\t\t\t\tWhen: estelle.On(%q, %q),\n", tr.WhenIP, tr.WhenMsg)
		params = g.paramScope(mod, tr.WhenIP, tr.WhenMsg)
	}
	if tr.Priority != 0 {
		g.pf("\t\t\t\tPriority: %d,\n", tr.Priority)
	}
	if tr.Provided != nil {
		src, typ, err := g.genExpr(tr.Provided, params)
		if err != nil {
			return fmt.Errorf("estgen: %s line %d: %w", b.Name, tr.Line, err)
		}
		if typ != "boolean" {
			return fmt.Errorf("estgen: %s line %d: provided is %s, not boolean", b.Name, tr.Line, typ)
		}
		g.pf("\t\t\t\tProvided: func(ctx *estelle.Ctx) bool { return %s },\n", src)
	}
	if tr.Delay != nil {
		src, typ, err := g.genExpr(tr.Delay, params)
		if err != nil {
			return fmt.Errorf("estgen: %s line %d: %w", b.Name, tr.Line, err)
		}
		if typ != "integer" {
			return fmt.Errorf("estgen: %s line %d: delay is %s, not integer", b.Name, tr.Line, typ)
		}
		g.pf("\t\t\t\tDelay: func(ctx *estelle.Ctx) time.Duration { return time.Duration(%s) * time.Millisecond },\n", src)
	}
	g.pf("\t\t\t\tAction: func(ctx *estelle.Ctx) {\n")
	if len(tr.Block) == 0 {
		g.pf("\t\t\t\t\t_ = ctx\n")
	} else if err := g.emitStmts(tr.Block, params, 5); err != nil {
		return fmt.Errorf("estgen: %s line %d: %w", b.Name, tr.Line, err)
	}
	g.pf("\t\t\t\t},\n")
	g.pf("\t\t\t},\n")
	return nil
}

func (g *generator) emitStmts(stmts []estparse.Stmt, params map[string][2]string, depth int) error {
	ind := strings.Repeat("\t", depth)
	for _, s := range stmts {
		switch st := s.(type) {
		case *estparse.Assign:
			src, typ, err := g.genExpr(st.Expr, params)
			if err != nil {
				return err
			}
			want, ok := g.varTypes[st.Name]
			if !ok {
				return fmt.Errorf("assignment to undeclared variable %q", st.Name)
			}
			if want != typ {
				return fmt.Errorf("assigning %s to %s variable %q", typ, want, st.Name)
			}
			g.pf("%sctx.SetVar(%q, %s)\n", ind, st.Name, src)
		case *estparse.OutputStmt:
			g.pf("%sctx.Output(%q, %q", ind, st.IP, st.Msg)
			for _, a := range st.Args {
				src, _, err := g.genExpr(a, params)
				if err != nil {
					return err
				}
				g.pf(", %s", src)
			}
			g.pf(")\n")
		case *estparse.IfStmt:
			src, typ, err := g.genExpr(st.Cond, params)
			if err != nil {
				return err
			}
			if typ != "boolean" {
				return fmt.Errorf("if condition is %s, not boolean", typ)
			}
			g.pf("%sif %s {\n", ind, src)
			if err := g.emitStmts(st.Then, params, depth+1); err != nil {
				return err
			}
			if len(st.Else) > 0 {
				g.pf("%s} else {\n", ind)
				if err := g.emitStmts(st.Else, params, depth+1); err != nil {
					return err
				}
			}
			g.pf("%s}\n", ind)
		case *estparse.WhileStmt:
			src, typ, err := g.genExpr(st.Cond, params)
			if err != nil {
				return err
			}
			if typ != "boolean" {
				return fmt.Errorf("while condition is %s, not boolean", typ)
			}
			g.pf("%sfor %s {\n", ind, src)
			if err := g.emitStmts(st.Body, params, depth+1); err != nil {
				return err
			}
			g.pf("%s}\n", ind)
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

// genExpr emits a Go expression and reports its Estelle type (integer,
// boolean, octetstring).
func (g *generator) genExpr(e estparse.Expr, params map[string][2]string) (string, string, error) {
	switch x := e.(type) {
	case estparse.IntLit:
		return fmt.Sprintf("int64(%d)", x.Value), "integer", nil
	case estparse.BoolLit:
		return fmt.Sprintf("%v", x.Value), "boolean", nil
	case estparse.StrLit:
		return fmt.Sprintf("%q", x.Value), "octetstring", nil
	case estparse.Ident:
		if p, ok := params[x.Name]; ok {
			switch p[1] {
			case "integer":
				return fmt.Sprintf("ctx.Msg.Int(%s)", p[0]), "integer", nil
			case "boolean":
				return fmt.Sprintf("ctx.Msg.Bool(%s)", p[0]), "boolean", nil
			default:
				return fmt.Sprintf("estParamStr(ctx, %s)", p[0]), "octetstring", nil
			}
		}
		typ, ok := g.varTypes[x.Name]
		if !ok {
			return "", "", fmt.Errorf("undefined identifier %q", x.Name)
		}
		switch typ {
		case "integer":
			return fmt.Sprintf("estVarInt(ctx, %q)", x.Name), "integer", nil
		case "boolean":
			return fmt.Sprintf("estVarBool(ctx, %q)", x.Name), "boolean", nil
		default:
			return fmt.Sprintf("estVarStr(ctx, %q)", x.Name), "octetstring", nil
		}
	case estparse.Unary:
		src, typ, err := g.genExpr(x.X, params)
		if err != nil {
			return "", "", err
		}
		switch x.Op {
		case "-":
			if typ != "integer" {
				return "", "", fmt.Errorf("unary - on %s", typ)
			}
			return fmt.Sprintf("(-%s)", src), "integer", nil
		case "not":
			if typ != "boolean" {
				return "", "", fmt.Errorf("not on %s", typ)
			}
			return fmt.Sprintf("(!%s)", src), "boolean", nil
		}
		return "", "", fmt.Errorf("unknown unary %q", x.Op)
	case estparse.Binary:
		l, lt, err := g.genExpr(x.L, params)
		if err != nil {
			return "", "", err
		}
		r, rt, err := g.genExpr(x.R, params)
		if err != nil {
			return "", "", err
		}
		if lt != rt {
			return "", "", fmt.Errorf("operator %q mixes %s and %s", x.Op, lt, rt)
		}
		switch x.Op {
		case "+":
			if lt == "boolean" {
				return "", "", fmt.Errorf("+ on boolean")
			}
			return fmt.Sprintf("(%s + %s)", l, r), lt, nil
		case "-", "*":
			if lt != "integer" {
				return "", "", fmt.Errorf("%s on %s", x.Op, lt)
			}
			op := x.Op
			return fmt.Sprintf("(%s %s %s)", l, op, r), "integer", nil
		case "div":
			if lt != "integer" {
				return "", "", fmt.Errorf("div on %s", lt)
			}
			return fmt.Sprintf("(%s / %s)", l, r), "integer", nil
		case "mod":
			if lt != "integer" {
				return "", "", fmt.Errorf("mod on %s", lt)
			}
			return fmt.Sprintf("(%s %% %s)", l, r), "integer", nil
		case "=":
			return fmt.Sprintf("(%s == %s)", l, r), "boolean", nil
		case "<>":
			return fmt.Sprintf("(%s != %s)", l, r), "boolean", nil
		case "<", "<=", ">", ">=":
			if lt == "boolean" {
				return "", "", fmt.Errorf("%s on boolean", x.Op)
			}
			return fmt.Sprintf("(%s %s %s)", l, x.Op, r), "boolean", nil
		case "and":
			return fmt.Sprintf("(%s && %s)", l, r), "boolean", nil
		case "or":
			return fmt.Sprintf("(%s || %s)", l, r), "boolean", nil
		}
		return "", "", fmt.Errorf("unknown operator %q", x.Op)
	default:
		return "", "", fmt.Errorf("unknown expression %T", e)
	}
}

// emitBuild reproduces the configuration section as a Build function.
func (g *generator) emitBuild() error {
	bodiesByName := make(map[string]*estparse.Body)
	for _, b := range g.spec.Bodies {
		bodiesByName[b.Name] = b
	}
	g.pf("// Build%s instantiates the specification's configuration section:\n", g.spec.Name)
	g.pf("// module variables, init bindings and connections. External module\n")
	g.pf("// bodies are taken from externals, keyed by module name.\n")
	g.pf("func Build%s(rt *estelle.Runtime, externals map[string]estelle.Body) (map[string]*estelle.Instance, error) {\n", g.spec.Name)
	g.pf("\tinsts := make(map[string]*estelle.Instance)\n")
	g.pf("\tvar err error\n")
	varMods := make(map[string]string)
	for _, cs := range g.spec.Config {
		switch s := cs.(type) {
		case estparse.ModVar:
			varMods[s.Name] = s.Module
		case estparse.InitStmt:
			if _, ok := bodiesByName[s.Body]; ok {
				g.pf("\tinsts[%q], err = rt.AddSystem(%sDef(), %q)\n", s.Var, s.Body, s.Var)
			} else {
				// External body.
				modName := varMods[s.Var]
				mod := g.mods[modName]
				if mod == nil || !mod.External {
					return fmt.Errorf("estgen: init %s with unknown body %q", s.Var, s.Body)
				}
				g.pf("\tinsts[%q], err = rt.AddSystem(&estelle.ModuleDef{\n", s.Var)
				g.pf("\t\tName: %q, Attr: %s, External: externals[%q],\n",
					modName, attrExpr(mod.Attr), modName)
				if len(mod.IPs) > 0 {
					g.pf("\t\tIPs: []estelle.IPDef{\n")
					for _, ip := range mod.IPs {
						g.pf("\t\t\t{Name: %q, Channel: %sChannel, Role: %q},\n",
							ip.Name, ip.Channel, ip.Role)
					}
					g.pf("\t\t},\n")
				}
				g.pf("\t}, %q)\n", s.Var)
			}
			g.pf("\tif err != nil {\n\t\treturn nil, err\n\t}\n")
		case estparse.ConnectStmt:
			g.pf("\tif err := rt.Connect(insts[%q].IP(%q), insts[%q].IP(%q)); err != nil {\n",
				s.AVar, s.AIP, s.BVar, s.BIP)
			g.pf("\t\treturn nil, err\n\t}\n")
		}
	}
	g.pf("\treturn insts, nil\n}\n")
	return nil
}
