package clove

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docStdlib lists the standard-library prefixes the design notes name: a
// package, or a variable of a standard-library type (rng is a *rand.Rand,
// wg a sync.WaitGroup). Their members are not checked.
var docStdlib = map[string]bool{
	"atomic": true, "bits": true, "errors": true, "http": true, "rand": true,
	"sync": true, "syscall": true, "time": true, "rng": true, "wg": true,
}

// docFileExts are the extensions that make a dotted name a file name.
var docFileExts = map[string]bool{"go": true, "md": true, "json": true, "txt": true, "sh": true, "mod": true, "yml": true}

// docName matches a backticked dotted Go name, optionally called.
var docName = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?$`)

// goDecls is what the tree declares: the top-level names of each package
// (by package name; several directories may share one) and the members
// (methods, fields, interface methods) of each type (by type name, merged
// across packages), with the types each type embeds.
type goDecls struct {
	pkgs     map[string]map[string]bool
	types    map[string]bool
	members  map[string]map[string]bool
	embeds   map[string][]string
	anyField map[string]bool // every member of every type
}

func (d *goDecls) addMember(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.anyField[name] = true
}

// typeName returns the name of a receiver or embedded type expression.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return ""
}

// parseDecls reads every Go file under root (test files and every build
// tag included; testdata and hidden directories skipped).
func parseDecls(t *testing.T, root string) *goDecls {
	d := &goDecls{
		pkgs: map[string]map[string]bool{}, types: map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{},
		anyField: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.pkgs[pkg][decl.Name.Name] = true
				} else {
					d.addMember(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.pkgs[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						d.addType(pkg, spec)
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

func (d *goDecls) addType(pkg string, spec *ast.TypeSpec) {
	name := spec.Name.Name
	d.pkgs[pkg][name] = true
	d.types[name] = true
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
		if len(f.Names) == 0 { // embedded
			emb := typeName(f.Type)
			d.addMember(name, emb)
			d.embeds[name] = append(d.embeds[name], emb)
		}
		for _, n := range f.Names {
			d.addMember(name, n.Name)
		}
	}
}

// hasMember reports whether typ, or a type it embeds, has member.
func (d *goDecls) hasMember(typ, member string, depth int) bool {
	if d.members[typ][member] {
		return true
	}
	if depth > 0 {
		for _, emb := range d.embeds[typ] {
			if d.hasMember(emb, member, depth-1) {
				return true
			}
		}
	}
	return false
}

// resolve reports whether a dotted name names something in the tree: a
// package's declaration (pkg.Name), a type's member (Type.Member), or, with
// any other prefix (a variable), a member of some type. Past the second
// element, each further element must be a member of some type.
func (d *goDecls) resolve(parts []string) bool {
	head, next := parts[0], parts[1]
	rest := parts[2:]
	switch {
	case d.pkgs[head] != nil && head != "main":
		if !d.pkgs[head][next] {
			return false
		}
		if len(rest) > 0 && d.types[next] {
			if !d.hasMember(next, rest[0], 3) {
				return false
			}
			rest = rest[1:]
		}
	case d.types[head]:
		if !d.hasMember(head, next, 3) {
			return false
		}
	default:
		rest = parts[1:]
	}
	for _, p := range rest {
		if !d.anyField[p] {
			return false
		}
	}
	return true
}

// benchMetrics returns the metric names BENCHMARK.json declares.
func benchMetrics(t *testing.T) map[string]bool {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	m := map[string]bool{}
	for _, x := range append(b.EndToEnd, b.PerLayer...) {
		m[x.Name] = true
	}
	return m
}

// TestDocNamesResolve checks that every backticked dotted name in README.md
// and DESIGN.md still names a declaration in the tree, so renaming or
// deleting code cannot leave the design notes pointing at nothing. File
// names, benchmark metrics and standard-library names (docStdlib) are
// exempt.
func TestDocNamesResolve(t *testing.T) {
	decls := parseDecls(t, ".")
	metrics := benchMetrics(t)
	span := regexp.MustCompile("`([^`]+)`")
	space := regexp.MustCompile(`\s+`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank the fenced blocks, keeping their lines so that offsets
		// still give line numbers; an inline span may wrap a line.
		lines := strings.Split(string(raw), "\n")
		fenced := false
		for i, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				lines[i] = ""
			} else if fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			inner := space.ReplaceAllString(strings.TrimSpace(text[m[2]:m[3]]), " ")
			name := docName.FindStringSubmatch(inner)
			if name == nil || metrics[name[1]] {
				continue
			}
			parts := strings.Split(name[1], ".")
			if docFileExts[parts[len(parts)-1]] || docStdlib[parts[0]] {
				continue
			}
			if !decls.resolve(parts) {
				line := strings.Count(text[:m[0]], "\n") + 1
				t.Errorf("%s:%d: `%s` names nothing in the tree", doc, line, name[1])
			}
		}
	}
}
