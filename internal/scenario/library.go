package scenario

import (
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"

	"clove/scenarios"
)

// LoadLibrary parses every *.json spec in fsys into a name-keyed library.
// Any parse or validation failure, and any two files declaring the same
// scenario name, is an error: a broken library file should fail loudly at
// startup (and in the library test), not when someone runs the scenario.
func LoadLibrary(fsys fs.FS) (map[string]*Spec, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("scenario: read library: %w", err)
	}
	lib := map[string]*Spec{}
	from := map[string]string{}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := fs.ReadFile(fsys, ent.Name())
		if err != nil {
			return nil, fmt.Errorf("scenario: read %s: %w", ent.Name(), err)
		}
		sp, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("scenario library %s: %w", ent.Name(), err)
		}
		if prev, dup := from[sp.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate scenario name %q (%s and %s)", sp.Name, prev, ent.Name())
		}
		from[sp.Name] = ent.Name()
		lib[sp.Name] = sp
	}
	return lib, nil
}

// library is the embedded library, parsed once per process. Its specs are
// shared: what leaves this package is a Clone.
var library = sync.OnceValue(func() map[string]*Spec {
	lib, err := LoadLibrary(scenarios.FS)
	if err != nil {
		panic(err)
	}
	return lib
})

// Library returns a copy of the embedded scenario library, panicking on any
// defect in the shipped files (they are compiled into the binary; a bad one
// is a bug, and the library test catches it before release).
func Library() map[string]*Spec {
	lib := make(map[string]*Spec, len(library()))
	for name, sp := range library() {
		lib[name] = sp.Clone()
	}
	return lib
}

// Names lists the embedded scenarios in sorted order.
func Names() []string {
	names := make([]string, 0, len(library()))
	for name := range library() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Load resolves nameOrPath: an embedded scenario name first, else a path to
// a spec file on disk.
func Load(nameOrPath string) (*Spec, error) {
	if sp, ok := library()[nameOrPath]; ok {
		return sp.Clone(), nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("scenario: %q is neither an embedded scenario (%s) nor a readable file: %w",
			nameOrPath, strings.Join(Names(), ", "), err)
	}
	return Parse(data)
}
