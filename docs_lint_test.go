package nearestpeer

// Documentation lint: doc drift fails the build. Two checks ride in CI's
// docs-lint step (alongside go vet):
//
//   - every exported symbol in every internal/* package carries a doc
//     comment (golint's rule);
//   - docs/REPRODUCTION.md names every figure in experiments.Figures, so
//     adding a figure without documenting how to reproduce it is an error.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nearestpeer/internal/experiments"
)

// docCoveredPackages are the directories whose exported symbols must all be
// documented: every package under internal/.
func docCoveredPackages(t *testing.T) []string {
	t.Helper()
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			pkgs = append(pkgs, dir)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no internal/* package found")
	}
	return pkgs
}

func TestDocCommentsOnExportedSymbols(t *testing.T) {
	for _, dir := range docCoveredPackages(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDecl(t, fset, path, decl)
				}
			}
		}
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, path string, decl ast.Decl) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s has no doc comment", p.Filename, p.Line, what)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && !isExportedMethodOfUnexported(d) {
			report(d.Pos(), "function "+d.Name.Name)
		}
	case *ast.GenDecl:
		// A doc comment on the grouped decl covers the group (const/var
		// blocks); individual specs may document themselves.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name.Pos(), "value "+name.Name)
					}
				}
			}
		}
	}
}

// isExportedMethodOfUnexported reports whether d is an exported method on
// an unexported receiver type (interface satisfaction plumbing like
// eventQueue.Len; not part of the package surface).
func isExportedMethodOfUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return !tt.IsExported()
		default:
			return false
		}
	}
}

// TestReproductionDocCoversEveryFigure requires every figure in the roster
// (experiments.Figures) to appear in docs/REPRODUCTION.md.
func TestReproductionDocCoversEveryFigure(t *testing.T) {
	figures := experiments.Figures(experiments.Quick, 1)
	if len(figures) < 23 {
		t.Fatalf("the figure roster lists only %d figures; expected at least 23", len(figures))
	}
	doc, err := os.ReadFile("docs/REPRODUCTION.md")
	if err != nil {
		t.Fatalf("docs/REPRODUCTION.md missing: %v", err)
	}
	for _, f := range figures {
		if !strings.Contains(string(doc), "`"+f.Name+"`") {
			t.Errorf("docs/REPRODUCTION.md does not document experiment %q", f.Name)
		}
	}
}

// TestReadmeLinksResolve keeps the README's docs/ links from rotting.
func TestReadmeLinksResolve(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`\]\((docs/[^)#]+)\)`)
	links := re.FindAllStringSubmatch(string(readme), -1)
	if len(links) == 0 {
		t.Fatal("README links to no docs/ files; architecture and reproduction guides must be linked")
	}
	for _, l := range links {
		if _, err := os.Stat(l[1]); err != nil {
			t.Errorf("README links to missing file %s", l[1])
		}
	}
}

// configCensusFile is the checked-in list of every settable config field.
const configCensusFile = "testdata/config_fields.txt"

// TestConfigFieldCensus lists pkg.Type.Field for every exported field of
// every census type (isCensusType) under internal/, and compares the list
// with testdata/config_fields.txt, so a knob added or removed shows up as a
// reviewed diff of that file.
func TestConfigFieldCensus(t *testing.T) {
	var fields []string
	for _, dir := range docCoveredPackages(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				fields = append(fields, configFields(pkg.Name, file)...)
			}
		}
	}
	raw, err := os.ReadFile(configCensusFile)
	if err != nil {
		t.Fatalf("%s missing: %v", configCensusFile, err)
	}
	listed := strings.Fields(string(raw))
	declared := map[string]bool{}
	for _, f := range fields {
		declared[f] = true
	}
	for _, f := range listed {
		if !declared[f] {
			t.Errorf("%s is listed in %s but no longer declared", f, configCensusFile)
		}
		delete(declared, f)
	}
	for _, f := range fields {
		if declared[f] {
			t.Errorf("%s is declared but not listed in %s", f, configCensusFile)
		}
	}
}

// isCensusType reports whether the exported struct type pkg.name holds
// knobs: a *Config, a study's *Opts, or the retry Policy (p2p.Config.Retry).
func isCensusType(pkg, name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts") || pkg+"."+name == "p2p.Policy"
}

// configFields returns pkg.Type.Field for the exported fields of the
// census types declared in file.
func configFields(pkg string, file *ast.File) []string {
	var out []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || !isCensusType(pkg, ts.Name.Name) {
				continue
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						out = append(out, pkg+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
		}
	}
	return out
}

// TestConfigFieldCensusSet fails for a census field that no file sets
// outside the field's own Default* constructor: a knob only its default
// ever writes has one value, and belongs beside its reader as a constant.
// Every Go file in the module tree counts as a setter (tests, examples/
// and bench/ included). A field is set by a keyed composite literal, by
// assignment or increment through a selector, or by taking its address
// (flag.IntVar(&cfg.F, …)); a typed zero literal T{} sets every field of
// T. Selectors carry no type, so they match any census field of that name.
func TestConfigFieldCensusSet(t *testing.T) {
	type typeKey struct{ pkg, typ string }
	fields := map[string][]typeKey{} // field name → census types declaring it
	for _, dir := range docCoveredPackages(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, f := range configFields(pkg.Name, file) {
					p := strings.SplitN(f, ".", 3)
					fields[p[2]] = append(fields[p[2]], typeKey{p[0], p[1]})
				}
			}
		}
	}
	set := map[string]bool{} // pkg.Type.Field
	mark := func(field string, tk *typeKey, skip map[typeKey]bool) {
		for _, k := range fields[field] {
			if (tk == nil || *tk == k) && !skip[k] {
				set[k.pkg+"."+k.typ+"."+field] = true
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(file.Name.Name, "_test")
		// litType names the census type a composite literal builds, or nil
		// when the literal's type is elided or not a plain named type.
		litType := func(e ast.Expr) *typeKey {
			switch x := e.(type) {
			case *ast.Ident:
				return &typeKey{pkg, x.Name}
			case *ast.SelectorExpr:
				if q, ok := x.X.(*ast.Ident); ok {
					return &typeKey{q.Name, x.Sel.Name}
				}
			}
			return nil
		}
		for _, decl := range file.Decls {
			// A Default* constructor's writes to the types it returns are
			// the defaults themselves, not a setter.
			skip := map[typeKey]bool{}
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default") && fd.Type.Results != nil {
				for _, r := range fd.Type.Results.List {
					if id, ok := r.Type.(*ast.Ident); ok {
						skip[typeKey{pkg, id.Name}] = true
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					tk := litType(x.Type)
					if tk != nil && len(x.Elts) == 0 {
						for field, keys := range fields {
							for _, k := range keys {
								if k == *tk && !skip[k] {
									set[k.pkg+"."+k.typ+"."+field] = true
								}
							}
						}
					}
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(id.Name, tk, skip)
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							mark(sel.Sel.Name, nil, skip)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := x.X.(*ast.SelectorExpr); ok {
						mark(sel.Sel.Name, nil, skip)
					}
				case *ast.UnaryExpr:
					if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
						mark(sel.Sel.Name, nil, skip)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	for field, keys := range fields {
		for _, k := range keys {
			if f := k.pkg + "." + k.typ + "." + field; !set[f] {
				unset = append(unset, f)
			}
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("%s is set by no file outside its Default* constructor: make it a constant beside its reader", f)
	}
}
