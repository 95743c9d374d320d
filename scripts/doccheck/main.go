// Command doccheck enforces the repo's documentation invariants:
//
//  1. every package under the given directories has a package-level doc
//     comment on some file;
//  2. in directories passed with a trailing "...strict" marker removed —
//     i.e. every directory listed on the command line — every *exported*
//     top-level symbol (type, function, method, const, var) has a doc
//     comment;
//  3. with -metrics DOC, every "pmwcm_…" metric-name string literal in
//     non-test Go under internal/ and cmd/ is named in DOC (inside
//     backticks; {a,b} brace groups expand, so `pmwcm_x_{a,b}` names
//     pmwcm_x_a and pmwcm_x_b).
//
// Usage: doccheck [-metrics doc] [-pkgdoc dir]... dir...
//
// Positional dirs get the full exported-symbol check; -pkgdoc dirs (may
// repeat) only need package doc comments. scripts/doccheck.sh wires this
// into CI.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	var pkgdocOnly multiFlag
	flag.Var(&pkgdocOnly, "pkgdoc", "directory that only needs a package doc comment (repeatable)")
	metricsDoc := flag.String("metrics", "", "document that must name every pmwcm_ metric literal under internal/ and cmd/")
	flag.Parse()
	if flag.NArg() == 0 && len(pkgdocOnly) == 0 && *metricsDoc == "" {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-metrics doc] [-pkgdoc dir]... dir...")
		os.Exit(2)
	}
	var problems []string
	if *metricsDoc != "" {
		problems = append(problems, checkMetrics(*metricsDoc, "internal", "cmd")...)
	}
	for _, dir := range pkgdocOnly {
		problems = append(problems, checkDir(dir, false)...)
	}
	for _, dir := range flag.Args() {
		problems = append(problems, checkDir(dir, true)...)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// checkDir parses one directory (non-recursive, skipping _test files) and
// returns its documentation problems.
func checkDir(dir string, exported bool) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var problems []string
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		if !exported {
			continue
		}
		for path, f := range pkg.Files {
			problems = append(problems, checkFile(fset, filepath.Base(path), f)...)
		}
	}
	return problems
}

// checkFile reports exported top-level declarations without doc comments.
func checkFile(fset *token.FileSet, file string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what, name string) {
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			file, fset.Position(pos).Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || methodOfUnexported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the group (or a per-spec comment,
					// including a trailing line comment) suffices for
					// const/var blocks.
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), "const/var", n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// methodOfUnexported reports whether d is a method on an unexported
// receiver type — internal machinery whose docs are the type's business.
func methodOfUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && !id.IsExported()
}

var (
	// metricLit matches a metric-name string literal's value.
	metricLit = regexp.MustCompile(`^pmwcm_[a-z0-9_]+$`)
	// docMetric matches a backticked metric name (possibly with brace
	// groups) in the document.
	docMetric = regexp.MustCompile("`(pmwcm_[a-z0-9_{},]+)`")
)

// checkMetrics reports every pmwcm_ metric-name literal in non-test Go
// under roots that doc does not name.
func checkMetrics(doc string, roots ...string) []string {
	raw, err := os.ReadFile(doc)
	if err != nil {
		return []string{err.Error()}
	}
	documented := map[string]bool{}
	for _, m := range docMetric.FindAllStringSubmatch(string(raw), -1) {
		for _, name := range expandBraces(m[1]) {
			documented[name] = true
		}
	}
	var problems []string
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if name, err := strconv.Unquote(lit.Value); err == nil && metricLit.MatchString(name) && !documented[name] {
					problems = append(problems, fmt.Sprintf("%s: metric %s is not documented in %s", fset.Position(lit.Pos()), name, doc))
				}
				return true
			})
			return nil
		})
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

// expandBraces expands {a,b} groups left to right:
// "x_{a,b}_{c,d}" → x_a_c, x_a_d, x_b_c, x_b_d.
func expandBraces(s string) []string {
	i := strings.IndexByte(s, '{')
	j := strings.IndexByte(s, '}')
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}
