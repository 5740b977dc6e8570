// Command doccheck is the CI documentation gate. It fails when an
// exported top-level identifier (type, function, method, var or const) in
// the given package directories lacks a doc comment, and when a package
// lacks a package-level doc comment. Run from the repository root, it
// also holds DESIGN.md to the tree: §2's package map must name every
// directory under internal/ and cmd/ that holds Go files, and every
// "DESIGN.md §N" cited in Go code must have a "## N." section. CI runs it
// over the serving-layer packages; run it locally with:
//
//	go run ./scripts/doccheck internal/server internal/metrics
package main

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> [<package dir> ...]")
		os.Exit(2)
	}
	bad := 0
	problems, err := checkDesign()
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: DESIGN.md: %v\n", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
		bad++
	}
	for _, dir := range os.Args[1:] {
		problems, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Println(p)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d documentation problem(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns one
// message per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", dir, pkg.Name))
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							// Methods on unexported receivers are not part
							// of the exported API surface.
							if !exportedRecv(d.Recv) {
								continue
							}
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// checkGenDecl reports undocumented exported types, vars and consts. A doc
// comment on the grouped declaration covers all of its specs (the
// convention for const/var blocks).
func checkGenDecl(d *ast.GenDecl, report func(pos token.Pos, what, name string)) {
	what := ""
	switch d.Tok {
	case token.TYPE:
		what = "type"
	case token.VAR:
		what = "var"
	case token.CONST:
		what = "const"
	default:
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), what, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), what, name.Name)
				}
			}
		}
	}
}

var (
	// sectionRE matches a DESIGN.md section heading, "## N. Title".
	sectionRE = regexp.MustCompile(`(?m)^## (\d+)\.`)
	// citeRE matches a DESIGN citation with the section numbers after it,
	// which may wrap onto the next comment line ("DESIGN.md §5 and §9",
	// "DESIGN.md\n// §14").
	citeRE       = regexp.MustCompile(`DESIGN(?:\.md)?(?:[\s,/–-]|and|or|§|\d)*`)
	sectionNumRE = regexp.MustCompile(`§+(\d+)`)
)

// checkDesign holds DESIGN.md to the tree under the working directory:
// §2's package map must name every directory under internal/ and cmd/
// that holds Go files (as "`internal/x`"), and every DESIGN section cited
// in a Go file must exist.
func checkDesign() ([]string, error) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		return nil, err
	}
	_, packageMap, ok := bytes.Cut(doc, []byte("\n## 2. "))
	if !ok {
		return nil, errors.New(`no "## 2." package map section`)
	}
	packageMap, _, _ = bytes.Cut(packageMap, []byte("\n## "))
	sections := map[string]bool{}
	for _, m := range sectionRE.FindAllSubmatch(doc, -1) {
		sections[string(m[1])] = true
	}
	var out []string
	mapped := map[string]bool{}
	fsys := os.DirFS(".")
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		if dir := path.Dir(p); (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && !mapped[dir] {
			mapped[dir] = true
			if !bytes.Contains(packageMap, []byte("`"+dir+"`")) {
				out = append(out, fmt.Sprintf("DESIGN.md §2: the package map has no line for `%s`", dir))
			}
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		for _, loc := range citeRE.FindAllIndex(src, -1) {
			for _, n := range sectionNumRE.FindAllSubmatch(src[loc[0]:loc[1]], -1) {
				if !sections[string(n[1])] {
					line := bytes.Count(src[:loc[0]], []byte("\n")) + 1
					out = append(out, fmt.Sprintf("%s:%d: cites DESIGN.md §%s, which has no section", p, line, n[1]))
				}
			}
		}
		return nil
	})
	return out, err
}
