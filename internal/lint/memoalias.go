package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Memoalias enforces the copy-on-return rule (PR 3): a function that reads
// a slice- or map-valued entry out of a memo/cache map must hand the caller
// a copy, never the cached value itself — an aliased return lets the caller
// mutate cache-private state and silently poison every later replay.
//
// A map expression is memo-like when any identifier in the expression, or
// the named type of any prefix of the selector chain, mentions "memo" or
// "cache" (case-insensitive): m.sol on a *runMemo qualifies via the
// receiver's type name. Values are aliasing-prone when their underlying
// type is (or transitively contains, through struct fields) a slice or map.
// Pointer-valued caches are exempt: handing out a shared, internally
// synchronized *spg.Analysis is the cache's purpose, not a leak.
//
// Flagged: `return m.cache[k]`, and `v, ok := m.cache[k]; ...; return v`
// when v was not reassigned in between. Passing v through any call (a
// clone helper, append-copy) or rebinding it clears the taint.
var Memoalias = &Analyzer{
	Name: "memoalias",
	Doc: "functions returning values from memo/cache maps must return copies " +
		"(copy-on-return); returning the cached slice/map aliases private cache state",
	Packages: []string{
		"spgcmp/internal/core",
		"spgcmp/internal/spg",
	},
	Run: runMemoalias,
}

func runMemoalias(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch f := n.(type) {
			case *ast.FuncDecl:
				body = f.Body
			case *ast.FuncLit:
				body = f.Body
			default:
				return true
			}
			if body != nil {
				memoaliasFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

func memoaliasFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// taints: variables bound to an aliasing-prone memo lookup, keyed by
	// object with the position of the binding.
	taints := make(map[types.Object]token.Pos)
	var rebinds []struct {
		obj types.Object
		pos token.Pos
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			return false // nested functions are visited on their own
		case *ast.AssignStmt:
			// v, ok := m[k] / v := m[k] / v = m[k] with a memo-like map m.
			// The variable's own type is consulted (not the index
			// expression's, which is a tuple in comma-ok form).
			if len(stmt.Rhs) == 1 {
				if idx, ok := stmt.Rhs[0].(*ast.IndexExpr); ok && memoMapIndex(info, idx) {
					if obj := identObj(info, stmt.Lhs[0]); obj != nil && aliasingProne(obj.Type()) {
						taints[obj] = stmt.Pos()
						return true
					}
				}
			}
			// Any other assignment to a tainted variable clears its taint.
			for _, lhs := range stmt.Lhs {
				if obj := identObj(info, lhs); obj != nil {
					rebinds = append(rebinds, struct {
						obj types.Object
						pos token.Pos
					}{obj, stmt.Pos()})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				switch e := res.(type) {
				case *ast.IndexExpr:
					if memoMapIndex(info, e) && aliasingProne(info.TypeOf(e)) {
						pass.Reportf(e.Pos(), "returns %s straight out of a memo/cache map; return a copy (copy-on-return)", types.ExprString(e))
					}
				case *ast.Ident:
					obj := identObj(info, e)
					if obj == nil {
						continue
					}
					tpos, tainted := taints[obj]
					if !tainted || tpos > stmt.Pos() {
						continue
					}
					cleared := false
					for _, rb := range rebinds {
						if rb.obj == obj && rb.pos > tpos && rb.pos < stmt.Pos() {
							cleared = true
							break
						}
					}
					if !cleared {
						pass.Reportf(e.Pos(), "returns %s, read from a memo/cache map and never copied; return a copy (copy-on-return)", e.Name)
					}
				}
			}
		}
		return true
	})
}

// memoMapIndex reports whether idx indexes a memo-like map.
func memoMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	return memoLike(info, idx.X)
}

// memoLike walks the selector chain of e looking for memo/cache in an
// identifier or in the named type of any prefix.
func memoLike(info *types.Info, e ast.Expr) bool {
	for {
		if nameSuggestsMemo(types.ExprString(e)) {
			return true
		}
		if n := derefNamed(info.TypeOf(e)); n != nil && nameSuggestsMemo(n.Obj().Name()) {
			return true
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		e = sel.X
	}
}

func nameSuggestsMemo(s string) bool {
	s = strings.ToLower(s)
	return strings.Contains(s, "memo") || strings.Contains(s, "cache")
}

// aliasingProne reports whether returning a value of type t uncopied can
// alias interior state: its underlying type is, or a struct field chain
// reaches, a slice or map. Pointers are deliberate sharing, not aliasing
// leaks, and are exempt.
func aliasingProne(t types.Type) bool {
	return aliasingProneVisit(t, make(map[types.Type]bool))
}

func aliasingProneVisit(t types.Type, visiting map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if visiting[t] {
		return false
	}
	visiting[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	case *types.Array:
		return aliasingProneVisit(u.Elem(), visiting)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasingProneVisit(u.Field(i).Type(), visiting) {
				return true
			}
		}
	}
	return false
}
