package scoopqs

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedBlock  = regexp.MustCompile("(?s)```.*?```")
	inlineCode   = regexp.MustCompile("`([^`\n]+)`")
	dottedName   = regexp.MustCompile(`^\*?([A-Za-z_]\w*)\.([A-Za-z_]\w*)(\(\))?$`)
	goRunPath    = regexp.MustCompile(`go run (\./[\w./-]+)`)
	readmeCite   = regexp.MustCompile(`README(?:'s)?\s+"([^"]+)"`)
	headingLine  = regexp.MustCompile(`(?m)^#{2,3} (.+)$`)
	headingParen = regexp.MustCompile(` \([^)]*\)$`)
)

// moduleDecls is what the module's non-test code declares, by name.
type moduleDecls struct {
	pkgs     map[string]map[string]bool // package name -> top-level names
	members  map[string]map[string]bool // type name -> fields and methods
	mainDirs map[string]bool            // slash paths of package main directories
	cites    map[string][]string        // file -> README sections its comments cite
}

// TestDocsNameWhatExists keeps README.md honest about the code: every
// backticked `Type.Member` or `pkg.Name` it mentions is declared in the
// module's non-test code (or names a standard-library package), every
// `go run ./path` it shows is a main package, and every Go comment that
// cites one of its sections — a quoted name after README or README's —
// names a ## or ### heading. Comments under a directory with a README.md
// of its own cite that one and are not checked here.
func TestDocsNameWhatExists(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	d := parseModule(t, ".")
	text := string(readme)

	for _, m := range inlineCode.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
		n := dottedName.FindStringSubmatch(m[1])
		if n == nil {
			continue
		}
		x, y := n[1], n[2]
		switch {
		case d.pkgs[x] != nil:
			if ast.IsExported(y) && !d.pkgs[x][y] {
				t.Errorf("README.md names `%s`: package %s declares no %s", m[1], x, y)
			}
		case d.members[x] != nil:
			if !d.members[x][y] {
				t.Errorf("README.md names `%s`: type %s has no field or method %s", m[1], x, y)
			}
		case ast.IsExported(y) && !isStdPackage(x):
			t.Errorf("README.md names `%s`: no package or type %s in the module", m[1], x)
		}
	}

	for _, m := range goRunPath.FindAllStringSubmatch(text, -1) {
		if dir := strings.TrimSuffix(strings.TrimPrefix(m[1], "./"), "/"); !d.mainDirs[dir] {
			t.Errorf("README.md runs `go run %s`: no main package there", m[1])
		}
	}

	headings := map[string]bool{}
	for _, m := range headingLine.FindAllStringSubmatch(text, -1) {
		h := strings.TrimSpace(m[1])
		headings[h] = true
		headings[headingParen.ReplaceAllString(h, "")] = true
	}
	for file, secs := range d.cites {
		for _, s := range secs {
			if !headings[s] {
				t.Errorf("%s cites README section %q, which README.md has no heading for", file, s)
			}
		}
	}
}

// parseModule parses every non-test Go file under root.
func parseModule(t *testing.T, root string) moduleDecls {
	t.Helper()
	d := moduleDecls{
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		mainDirs: map[string]bool{},
		cites:    map[string][]string{},
	}
	ownReadme := map[string]bool{} // directories below root with a README.md
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "README.md")); err == nil && path != root {
				ownReadme[path] = true
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if citesRootReadme(dir, root, ownReadme) {
			for _, cg := range f.Comments {
				for _, m := range readmeCite.FindAllStringSubmatch(cg.Text(), -1) {
					d.cites[path] = append(d.cites[path], strings.Join(strings.Fields(m[1]), " "))
				}
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := f.Name.Name
		if pkg == "main" {
			d.mainDirs[filepath.ToSlash(dir)] = true
		}
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(d.pkgs, pkg, decl.Name.Name)
				} else {
					add(d.members, receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(d.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(d.pkgs, pkg, spec.Name.Name)
						addMembers(d.members, spec)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// citesRootReadme reports whether a comment in dir that says "README"
// means root's README.md: no directory between dir and root has its own.
func citesRootReadme(dir, root string, ownReadme map[string]bool) bool {
	for ; dir != root; dir = filepath.Dir(dir) {
		if ownReadme[dir] {
			return false
		}
	}
	return true
}

// isStdPackage reports whether path is a standard-library import path.
func isStdPackage(path string) bool {
	p, err := build.Default.Import(path, "", build.FindOnly)
	return err == nil && p.Goroot
}

// receiverType is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// addMembers records the named fields of a struct type and the methods
// of an interface type.
func addMembers(members map[string]map[string]bool, spec *ast.TypeSpec) {
	var fields *ast.FieldList
	switch t := spec.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			add(members, spec.Name.Name, n.Name)
		}
	}
}

func add(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}
