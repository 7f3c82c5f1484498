package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// typedPackages lists the packages whose errors TestErrorsAreTyped
// holds to the sentinel rule.
var typedPackages = []string{"internal/msg", "internal/via"}

// TestErrorsAreTyped keeps every error the listed packages build
// matchable with errors.Is: a fmt.Errorf must wrap (%w) something, and
// errors.New may only define a package-level sentinel (var Err… or
// err…).
func TestErrorsAreTyped(t *testing.T) {
	for _, dir := range typedPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range untypedErrors(f) {
				t.Errorf("%s: %s", fset.Position(bad.Pos()), describe(bad))
			}
		}
	}
}

// untypedErrors returns the calls of f that break the sentinel rule.
func untypedErrors(f *ast.File) []*ast.CallExpr {
	sentinels := map[*ast.CallExpr]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, v := range vs.Values {
				if call, ok := v.(*ast.CallExpr); ok && i < len(vs.Names) &&
					strings.HasPrefix(strings.ToLower(vs.Names[i].Name), "err") {
					sentinels[call] = true
				}
			}
		}
	}
	var bad []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch callee(call) {
		case "errors.New":
			if !sentinels[call] {
				bad = append(bad, call)
			}
		case "fmt.Errorf":
			if !wraps(call) {
				bad = append(bad, call)
			}
		}
		return true
	})
	return bad
}

// callee names a call's package-qualified function ("fmt.Errorf").
func callee(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	return pkg.Name + "." + sel.Sel.Name
}

// wraps reports whether a fmt.Errorf call's format is a literal with a
// %w verb.
func wraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	format, err := strconv.Unquote(lit.Value)
	return err == nil && strings.Contains(format, "%w")
}

func describe(call *ast.CallExpr) string {
	if callee(call) == "errors.New" {
		return "errors.New outside a package-level var Err… sentinel"
	}
	return "fmt.Errorf without %w: wrap a sentinel"
}
