// Command docscheck is the repository's documentation gate, run by `make
// ci`. It enforces three invariants that keep the codebase legible as it
// grows:
//
//  1. Every Go package in the repository — internal/, cmd/, examples/ and
//     the root library package — carries a package (or command) doc
//     comment on at least one of its files.
//
//  2. Every relative link and bare file reference in the top-level
//     markdown docs (README.md, ARCHITECTURE.md, and any file passed as
//     an argument) resolves to an existing file, so the docs cannot
//     silently rot as files move.
//
//  3. Every backquoted Go reference into a repository package — `pkg.Name`
//     or `pkg.Type.Member`, where pkg is the root package (manhattan) or
//     one under internal/ — in those docs names a declaration that
//     exists, so the docs cannot go on describing an API after it is
//     deleted. Fenced code blocks are skipped (their identifiers are
//     often variables), and so is every other package, the standard
//     library's included.
//
// Usage:
//
//	docscheck [-root DIR] [extra.md ...]
//
// Exits non-zero listing every violation. It has no dependencies beyond
// the standard library, so the gate costs nothing to run anywhere the
// repo builds.
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
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkPackageDocs(*root)...)

	docs := []string{"README.md", "ARCHITECTURE.md"}
	docs = append(docs, flag.Args()...)
	decls, err := loadDecls(*root)
	if err != nil {
		problems = append(problems, err.Error())
	}
	for _, doc := range docs {
		problems = append(problems, checkDocLinks(*root, doc)...)
		if decls != nil {
			problems = append(problems, checkDocIdents(*root, doc, decls)...)
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok (package docs present, doc links and identifiers resolve)")
}

// checkPackageDocs walks every directory under root containing Go files
// and reports those whose package has no doc comment on any file.
func checkPackageDocs(root string) []string {
	byDir := map[string]bool{} // dir -> has a package doc comment
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		if byDir[dir] {
			return nil // already satisfied by another file
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			byDir[dir] = true
		}
		return nil
	})
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for dir := range seen {
		if !byDir[dir] {
			rel, rerr := filepath.Rel(root, dir)
			if rerr != nil {
				rel = dir
			}
			problems = append(problems, fmt.Sprintf("package in %s has no package doc comment", rel))
		}
	}
	return problems
}

// linkRe matches markdown links [text](target) (images included).
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// fileRefRe matches bare backticked repo file references like
// `internal/sim/world.go` or `BENCH_3.json` — paths with an extension we
// track, no spaces.
var fileRefRe = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:go|md|json|mk|mod))`")

// checkDocLinks verifies that every relative link and backticked file
// reference in the markdown file resolves under root. External targets
// (scheme://, mailto:, #fragment) are skipped.
func checkDocLinks(root, doc string) []string {
	path := filepath.Join(root, doc)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return []string{fmt.Sprintf("%s is missing", doc)}
		}
		return []string{err.Error()}
	}
	var problems []string
	check := func(target string) {
		if target == "" ||
			strings.Contains(target, "://") ||
			strings.HasPrefix(target, "mailto:") ||
			strings.HasPrefix(target, "#") {
			return
		}
		target = strings.SplitN(target, "#", 2)[0] // strip fragment
		if _, err := os.Stat(filepath.Join(root, target)); err != nil {
			problems = append(problems, fmt.Sprintf("%s references %q, which does not exist", doc, target))
		}
	}
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		check(m[1])
	}
	for _, m := range fileRefRe.FindAllStringSubmatch(string(data), -1) {
		check(m[1])
	}
	return problems
}

// repoDecls names the declarations of the repository's own packages: the
// package names, and every "pkg.Name" and "pkg.Type.Member" declared, a
// member being a method, a struct field or an interface method.
type repoDecls struct {
	pkgs  map[string]bool
	names map[string]bool
}

// loadDecls parses the non-test Go files of the root package and of every
// package under internal/.
func loadDecls(root string) (*repoDecls, error) {
	dirs := []string{root}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rd := &repoDecls{pkgs: map[string]bool{}, names: map[string]bool{}}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", path, err)
			}
			rd.add(f)
		}
	}
	return rd, nil
}

// add records the top-level declarations of f.
func (rd *repoDecls) add(f *ast.File) {
	pkg := f.Name.Name
	rd.pkgs[pkg] = true
	name := func(parts ...string) { rd.names[pkg+"."+strings.Join(parts, ".")] = true }
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				name(decl.Name.Name)
			} else if typ := typeName(decl.Recv.List[0].Type); typ != "" {
				name(typ, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						name(n.Name)
					}
				case *ast.TypeSpec:
					typ := spec.Name.Name
					name(typ)
					var fields *ast.FieldList
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						if len(fld.Names) == 0 {
							name(typ, typeName(fld.Type)) // embedded
						}
						for _, n := range fld.Names {
							name(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName returns the name of the same-package type expr denotes — T,
// *T, T[P] or *T[P] — or "" for any other expression.
func typeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// codeSpanRe matches an inline code span; identRefRe a package-qualified
// exported name, with an optional member, that does not continue a
// longer dotted path.
var (
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	identRefRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)
)

// checkDocIdents verifies that every backquoted pkg.Name or
// pkg.Type.Member in doc, outside fenced code blocks, names a declaration
// when pkg is a repository package. Members are matched as declared, not
// as promoted through an embedded type.
func checkDocIdents(root, doc string, rd *repoDecls) []string {
	data, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		return nil // checkDocLinks reports it
	}
	var problems []string
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, span := range codeSpanRe.FindAllStringSubmatch(line, -1) {
			for _, m := range identRefRe.FindAllStringSubmatch(span[1], -1) {
				if ref := m[1] + "." + m[2]; rd.pkgs[m[1]] && !rd.names[ref] {
					problems = append(problems, fmt.Sprintf("%s names %s, which is not declared", doc, ref))
				}
			}
		}
	}
	return problems
}
