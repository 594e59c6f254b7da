package analysis

import (
	"go/ast"
	"go/types"
)

// NoRetain enforces the consume-before-return aliasing contracts of the
// delivery paths (PR 2/4/9): transport.Conn.Send buffers, mtp PacketConn
// Send payloads, StreamConn.SendBatch hdr/payload pairs, and deliver-callback
// frames are valid only for the duration of the call — callers reuse
// marshal buffers and the storage layer recycles chunks the moment the
// call returns. An implementation that squirrels such a slice away
// corrupts a future frame, silently, under load only.
//
// A function declares the contract for specific parameters with
// //xmovie:noretain p1 p2... in its doc comment. Inside the body the
// analyzer taints those parameters and every local alias of them (slices,
// re-slices, field reads through a tainted pointer, address-taking), then
// reports any flow that lets a tainted value outlive the call:
//
//   - assignment to a struct field, array/map element, or package-level
//     variable (including via a composite literal containing the value)
//   - a channel send
//   - returning the value to the caller
//   - capture by a goroutine or by a closure that itself escapes
//   - appending the slice header itself (append(dst, p) — aliasing),
//     as opposed to append(dst, p...), which copies the bytes and is the
//     canonical way to consume a no-retain buffer (copy(dst, p) likewise)
//
// Passing a tainted value onward as an ordinary call argument is accepted:
// the callee is assumed to honour its own documented contract (annotate
// it too — the analyzer will then hold it to the same rules).
var NoRetain = &Analyzer{
	Name: "noretain",
	Doc:  "parameters annotated //xmovie:noretain must not escape the call",
	Run:  runNoRetain,
}

func runNoRetain(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d, ok := pass.Dirs.ForFunc(fd, "noretain")
			if !ok {
				continue
			}
			checkNoRetain(pass, fd, d)
		}
	}
	return nil
}

func checkNoRetain(pass *Pass, fd *ast.FuncDecl, d Directive) {
	named := make(map[string]bool, len(d.Args))
	for _, a := range d.Args {
		named[a] = true
	}
	tainted := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				if named[id.Name] {
					if obj := pass.Info.Defs[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
	}
	if len(tainted) == 0 {
		return // directives analyzer reports the bad parameter names
	}
	nr := &noRetainCheck{pass: pass, fd: fd, tainted: tainted}
	nr.propagate()
	nr.check()
}

type noRetainCheck struct {
	pass    *Pass
	fd      *ast.FuncDecl
	tainted map[types.Object]bool
}

// propagate extends the taint set with locals assigned from tainted
// expressions, iterating to a fixpoint (flow-insensitive: order of
// assignment within the body does not matter).
func (nr *noRetainCheck) propagate() {
	for {
		changed := false
		ast.Inspect(nr.fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := nr.objOf(id)
				if obj == nil || nr.tainted[obj] {
					continue
				}
				if nr.taintedExpr(as.Rhs[i]) {
					nr.tainted[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (nr *noRetainCheck) objOf(id *ast.Ident) types.Object {
	if obj := nr.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return nr.pass.Info.Uses[id]
}

// taintedExpr reports whether evaluating e can yield a value aliasing a
// no-retain parameter. Calls are boundaries: their results are assumed
// fresh (the callee's own contract covers what it did with the arguments),
// and arguments consumed by the copying builtins (append's ...-spread,
// copy, len, cap) do not propagate.
func (nr *noRetainCheck) taintedExpr(e ast.Expr) bool {
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *ast.Ident:
			if obj := nr.pass.Info.Uses[x]; obj != nil && nr.tainted[obj] {
				found = true
			}
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.SliceExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			// Arithmetic/comparison never yields an alias.
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(elt)
				}
			}
		case *ast.CallExpr:
			if name, isBuiltin := nr.builtinName(x); isBuiltin {
				switch name {
				case "append":
					// append(dst, p...) copies p's bytes — consumed, safe.
					// append(dst, p) stores the slice header — aliasing;
					// the dst operand may itself be a tainted alias.
					walk(x.Args[0])
					if x.Ellipsis == 0 {
						for _, a := range x.Args[1:] {
							walk(a)
						}
					}
				case "copy", "len", "cap", "min", "max", "clear", "delete", "print", "println", "panic", "recover", "close":
					// Consume or inspect; never alias.
				default:
					for _, a := range x.Args {
						walk(a)
					}
				}
				return
			}
			if nr.isConversion(x) && len(x.Args) == 1 {
				// string(p) copies; T(p) of a slice type aliases.
				if t, ok := nr.pass.Info.Types[x].Type.Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					return
				}
				walk(x.Args[0])
				return
			}
			// Ordinary call: results assumed fresh, arguments assumed
			// consumed per the callee's own contract.
		case *ast.FuncLit:
			// Handled contextually (escaping closures); the literal value
			// itself is checked where it is stored or launched.
		case *ast.TypeAssertExpr:
			walk(x.X)
		}
	}
	walk(e)
	return found
}

func (nr *noRetainCheck) builtinName(call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isBuiltin := nr.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name, true
	}
	return "", false
}

func (nr *noRetainCheck) isConversion(call *ast.CallExpr) bool {
	tv, ok := nr.pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// usesTainted deep-walks n (including closure bodies and call arguments)
// for any use of a tainted object — the goroutine-capture check, where
// even passing the value as an argument hands it to code that outlives
// the call.
func (nr *noRetainCheck) usesTainted(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := nr.pass.Info.Uses[id]; obj != nil && nr.tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// localLHS reports whether the assignment target keeps the value inside
// this call: a plain identifier bound in the function (or the blank
// identifier). Selectors, index expressions and package-level variables
// let the value outlive the call.
func (nr *noRetainCheck) localLHS(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := nr.objOf(id)
	if obj == nil {
		return false
	}
	// A package-level variable outlives every call.
	return obj.Parent() != nr.pass.Pkg.Scope()
}

func (nr *noRetainCheck) check() {
	params := nr.describeParams()
	ast.Inspect(nr.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			rhs := x.Rhs
			if len(x.Lhs) != len(rhs) {
				rhs = nil // tuple assignment from a call: results are fresh
			}
			for i, lhs := range x.Lhs {
				if nr.localLHS(lhs) {
					continue
				}
				if i < len(rhs) && nr.taintedExpr(rhs[i]) {
					nr.pass.Report(x.Pos(),
						"%s stores no-retain parameter (%s) beyond the call: the caller reclaims it when %s returns",
						nr.fd.Name.Name, params, nr.fd.Name.Name)
				}
			}
		case *ast.SendStmt:
			if nr.taintedExpr(x.Value) {
				nr.pass.Report(x.Pos(),
					"%s sends no-retain parameter (%s) on a channel: the receiver outlives the call",
					nr.fd.Name.Name, params)
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if nr.taintedExpr(res) {
					nr.pass.Report(x.Pos(),
						"%s returns no-retain parameter (%s): it must be consumed before the call returns",
						nr.fd.Name.Name, params)
				}
			}
		case *ast.GoStmt:
			if nr.usesTainted(x.Call) {
				nr.pass.Report(x.Pos(),
					"%s hands no-retain parameter (%s) to a goroutine that may outlive the call",
					nr.fd.Name.Name, params)
			}
		case *ast.CallExpr:
			// append(x, p) without ... stores the slice header into dst —
			// aliasing, not consumption — wherever the result lands.
			if name, ok := nr.builtinName(x); ok && name == "append" && x.Ellipsis == 0 {
				for _, a := range x.Args[1:] {
					// Strict alias only: a composite literal element is
					// reported at its enclosing store instead.
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						if obj := nr.pass.Info.Uses[id]; obj != nil && nr.tainted[obj] {
							nr.pass.Report(x.Pos(),
								"%s appends the slice header of no-retain parameter (%s): append(dst, p...) copies, append(dst, p) aliases",
								nr.fd.Name.Name, params)
						}
					}
				}
			}
		}
		return true
	})
}

// describeParams names the annotated parameters in declaration order for
// diagnostics.
func (nr *noRetainCheck) describeParams() string {
	s := ""
	if nr.fd.Type.Params != nil {
		for _, field := range nr.fd.Type.Params.List {
			for _, id := range field.Names {
				if obj := nr.pass.Info.Defs[id]; obj != nil && nr.tainted[obj] {
					if s != "" {
						s += ", "
					}
					s += id.Name
				}
			}
		}
	}
	return s
}
