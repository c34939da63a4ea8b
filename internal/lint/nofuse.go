package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nofuse flags a floating-point product that is an operand of an addition
// or a subtraction (`x*y + z`, `z - x*y`, `s += x*y`, `s -= x*y`) without
// an explicit conversion around it. The Go spec lets a compiler fuse such
// an expression into one multiply-add, which rounds once where the source
// rounds twice; arm64, ppc64le, s390x and riscv64 do, amd64 does not. An
// explicit conversion, `float64(x*y) + z`, forbids the fusion, so the
// solver's output bytes stay the same on every GOARCH. A product of two
// constants is folded at compile time and never fuses.
//
// The analyzer also runs on the listed packages' _test.go files, whose
// oracles must compute the same bits as the code they check.
var Nofuse = &Analyzer{
	Name: "nofuse",
	Doc: "flag an unconverted float product that is an operand of +, -, += or -=, " +
		"which a compiler may fuse into a multiply-add on some GOARCH",
	Packages: []string{
		"spgcmp/internal/spg",
		"spgcmp/internal/platform",
		"spgcmp/internal/mapping",
		"spgcmp/internal/core",
		"spgcmp/internal/exact",
		"spgcmp/internal/engine",
		"spgcmp/internal/sim",
	},
	Tests: true,
	Run:   runNofuse,
}

func runNofuse(pass *Pass) error {
	report := func(operand ast.Expr) {
		if p := fusibleProduct(pass.TypesInfo, operand); p != nil {
			pass.Reportf(p.Pos(), "float product is an operand of an addition or subtraction and may fuse into a multiply-add; convert it: float64(...)")
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					report(n.X)
					report(n.Y)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
					report(n.Rhs[0])
				}
			}
			return true
		})
	}
	return nil
}

// fusibleProduct returns the float multiplication e is, looking through
// parentheses and unary signs (neither rounds), or nil when e is anything
// else: a conversion, a call, a constant or a non-float product.
func fusibleProduct(info *types.Info, e ast.Expr) *ast.BinaryExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			if x.Op == token.SUB || x.Op == token.ADD {
				e = x.X
				continue
			}
		case *ast.BinaryExpr:
			tv, ok := info.Types[x]
			if x.Op != token.MUL || !ok || tv.Value != nil {
				return nil
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				return x
			}
		}
		return nil
	}
}
