package p2pdb_test

// Source invariants that no compiler or analyzer enforces, each the residue
// of a measured design decision. A failure names what came back.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relalg"
	"repro/internal/serving"
)

// programFiles lists the tree's non-test .go files, skipping testdata and dot
// directories as the go tool does.
func programFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNoGobOnTheTuplePath: the wire frame and the WAL record share one
// hand-written byte codec; gob survives only in the cold consensus and control
// logs. Test files count too.
func TestNoGobOnTheTuplePath(t *testing.T) {
	for _, dir := range []string{"internal/wire", "internal/transport", "internal/replica", "internal/storage", "internal/relalg"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("encoding/gob is back on the tuple path: %s", path)
				}
			}
		}
	}
}

// TestOnePassPerTuplePerHop: an answer is a set. Evaluation, the part join
// and the peer's update path return first-derivation order and never sort it
// (canonical order lives in relalg.SortTuples, for LocalQuery, the
// QueryRequest reply and the printers). TupleSet is a log, an open-addressing
// table of positions and value chunks — no hash-keyed map. A relation's
// per-position index is keyed by the hash a value carries, never by the value
// (the built-in map would hash the string's bytes again). Only multi-source
// rules join parts: a single-source answer goes to the chase as it is
// (rules.ApplyPart).
func TestOnePassPerTuplePerHop(t *testing.T) {
	for _, path := range []string{"internal/cq/eval.go", "internal/rules/eval.go", "internal/peer/update.go"} {
		for _, sorting := range []string{"Sorted()", "sort.Slice(", "slices.Sort", "SortTuples("} {
			if bytes.Contains(readFile(t, path), []byte(sorting)) {
				t.Errorf("a canonical sort is back on the answer path: %s calls %s", path, sorting)
			}
		}
	}
	if bytes.Contains(readFile(t, "internal/relalg/tupleset.go"), []byte("map[uint64]")) {
		t.Error("TupleSet grew a hash-keyed map again")
	}
	if bytes.Contains(readFile(t, "internal/relalg/relation.go"), []byte("map[Value]")) {
		t.Error("a relation index is keyed by Value again")
	}
	if n := bytes.Count(readFile(t, "internal/peer/update.go"), []byte("rules.JoinParts(")); n != 2 {
		t.Errorf("rules.JoinParts( has %d call sites in peer/update.go, want 2 (joinPartsLocked, joinPartsDeltaLocked)", n)
	}
}

// TestOneUpdateDriver: core.DriveUpdate is the only loop that decides
// "settled but open → probe → retry"; Network.Update/UpdateStaged,
// Coordinator.Update and ControlPlane.drive observe for it. A second
// closureProbes, a second "still open after" error, a ProbeRequest built
// outside the two wire observers, or a Probes/SettleDeficit option is a forked
// driver.
func TestOneUpdateDriver(t *testing.T) {
	defines := regexp.MustCompile(`closureProbes *=`)
	var probes, stillOpen []string
	fset := token.NewFileSet()
	for _, path := range programFiles(t) {
		src := readFile(t, path)
		for _, line := range bytes.Split(src, []byte("\n")) {
			if defines.Match(line) {
				probes = append(probes, path)
			}
		}
		if bytes.Contains(src, []byte("still open after")) {
			stillOpen = append(stillOpen, path)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, site := range probeRequestSites(f) {
			if pkg != "internal/cluster" || (site != "(*wireWave).Probe" && site != "(*planeWave).Probe") {
				t.Errorf("wire.ProbeRequest{} built outside the driver's observers: %s in %s", site, pkg)
			}
		}
		if pkg == "internal/cluster" {
			for _, field := range structFields(f, "CoordinatorOptions") {
				if field == "Probes" || field == "SettleDeficit" {
					t.Errorf("CoordinatorOptions grew a probe knob again: %s", field)
				}
			}
		}
	}
	if len(probes) != 1 {
		t.Errorf("closureProbes is defined %d times, want 1: %v", len(probes), probes)
	}
	if len(stillOpen) != 1 {
		t.Errorf("\"still open after\" occurs in %d non-test files, want 1: %v", len(stillOpen), stillOpen)
	}
}

// TestOneSettleRule: every transport settles by the peers' counter balance.
// The in-memory router's own in-flight view (Quiescer, WaitQuiescent) and the
// hook that fed it (WorkTracker, TrackWork) survive in internal/transport only
// for benchmark/trace.go; nothing else in the program may name them — not
// core's Quiesce, not the Batcher, not a peer.
func TestOneSettleRule(t *testing.T) {
	oracle := regexp.MustCompile(`\b(Quiescer|WorkTracker|WaitQuiescent|TrackWork)\b`)
	for _, path := range programFiles(t) {
		path = filepath.ToSlash(path)
		switch {
		case strings.HasPrefix(path, "benchmark/"),
			path == "internal/transport/mem.go", path == "internal/transport/transport.go":
			continue
		}
		if m := oracle.Find(readFile(t, path)); m != nil {
			t.Errorf("%s names %s: only the counter balance decides when a network has settled", path, m)
		}
	}
}

// TestValueIsPointerFree: a relalg.Value is 16 bytes and holds no pointer — a
// string or null is a symbol id — so value chunks are never scanned by the
// collector, which was dblp-mem's top cost when a Value carried its string.
func TestValueIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(relalg.Value{}); size != 16 {
		t.Errorf("relalg.Value is %d bytes, want 16", size)
	}
	typ := reflect.TypeOf(relalg.Value{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("relalg.Value.%s is a %s: a Value must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestNoPerWatcherDedupSet: the exactly-once set lives on the watcher class,
// one per (conjunction, columns) pair. A set per watcher held W copies of the
// same result, most of live-fanout's heap with its 16 watchers.
func TestNoPerWatcherDedupSet(t *testing.T) {
	set := reflect.TypeOf(relalg.TupleSet{})
	typ := reflect.TypeOf((*serving.Watcher)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type == set || f.Type == reflect.PointerTo(set) {
			t.Errorf("serving.Watcher.%s is a %s: the dedup set belongs to the class", f.Name, f.Type)
		}
	}
}

// probeRequestSites names the function around each wire.ProbeRequest literal
// in f, as "(*Recv).Name" or "Name".
func probeRequestSites(f *ast.File) []string {
	wireName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/wire" {
			wireName = "wire"
			if imp.Name != nil {
				wireName = imp.Name.Name
			}
		}
	}
	if wireName == "" {
		return nil
	}
	var sites []string
	for _, decl := range f.Decls {
		ast.Inspect(decl, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "ProbeRequest" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == wireName {
					sites = append(sites, funcName(decl))
				}
			}
			return true
		})
	}
	return sites
}

func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "package level"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// structFields lists the field names of the struct type name declared in f.
func structFields(f *ast.File, name string) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != name {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					out = append(out, id.Name)
				}
			}
		}
		return false
	})
	return out
}
