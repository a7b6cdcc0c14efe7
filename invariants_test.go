package p2pdb_test

// Source invariants that no compiler or analyzer enforces, each the residue
// of a measured design decision. A failure names what came back.

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/analysis/load"
	"repro/internal/relalg"
	"repro/internal/serving"
	"repro/internal/wire"
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
// QueryRequest reply and the printers). TupleSet is row chunks and an
// open-addressing table of positions — no hash-keyed map. A relation's
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
		t.Errorf("rules.JoinParts( has %d call sites in peer/update.go, want 2 (joinParts, joinPartsDelta)", n)
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

// TestValueIsPointerFree: a relalg.Value is one 4-byte tagged word and holds
// no pointer — a string, a null or an int outside the inline range
// [-2^29, 2^29) is a 30-bit symbol id — so value chunks are never scanned by
// the collector, which was dblp-mem's top cost when a Value carried its
// string, and a stored row spends no padding on a kind byte and no high word
// on payloads that fit in 30 bits.
func TestValueIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(relalg.Value{}); size != 4 {
		t.Errorf("relalg.Value is %d bytes, want 4", size)
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

// TestOneRowPerStoredTuple: a stored tuple is one row of its set's row
// chunks, read back through TupleSet.At, and nothing else. A log of one
// Tuple per member cost a 24-byte slice header each — the only pointers the
// collector scanned in a relation, ~7 MB of dblp-mem's heap — so no field of
// a TupleSet or a Relation holds relalg.Tuple elements.
func TestOneRowPerStoredTuple(t *testing.T) {
	tuple := reflect.TypeOf(relalg.Tuple{})
	for _, typ := range []reflect.Type{reflect.TypeOf(relalg.TupleSet{}), reflect.TypeOf(relalg.Relation{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Slice, reflect.Array, reflect.Map, reflect.Chan, reflect.Pointer:
				if f.Type.Elem() == tuple {
					t.Errorf("relalg.%s.%s is a %s: stored tuples are rows of the set's chunks", typ.Name(), f.Name, f.Type)
				}
			}
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

// TestOneMessageSize: a message's bytes, as the statistics and the Batcher
// count them, are its encoded length, which wire.Size takes from the codec's
// own arms. Hand-written Size estimates restated the frame layout and
// disagreed with it (an AnswerAck of 19 bytes was counted as 50), so
// wire.Message declares Kind alone and no program file of internal/wire
// declares a Size() int method: a new kind cannot bring an estimate back.
func TestOneMessageSize(t *testing.T) {
	if n := reflect.TypeOf((*wire.Message)(nil)).Elem().NumMethod(); n != 1 {
		t.Errorf("wire.Message declares %d methods, want Kind alone", n)
	}
	paths, err := filepath.Glob(filepath.Join("internal", "wire", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Size" || fn.Type.Params.NumFields() != 0 || fn.Type.Results.NumFields() != 1 {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && res.Name == "int" {
				t.Errorf("%s: a Size() int estimate is back; count bytes with wire.Size", fset.Position(fn.Pos()))
			}
		}
	}
}

// TestPeerStepIsPure: the paper's protocol is peer.peerState and its step,
// the replicated log under the control plane is consensus.state and its
// step, the control plane's agreed state is cluster.foldState and its fold,
// and the failure detector is cluster.detector and its step; the model
// checkers drive the steps directly. So the files that declare one of these
// states or a method on it take no lock, start no goroutine, read no clock
// (time is a value passed in: only time.Time and time.Duration may be named),
// call no package-level math/rand function (those draw from one process-wide
// source; jitter comes from a source the state owns) and reach no transport,
// log, watcher hub, peer or file — those are the shells' (each runs its step
// in a shell.Shell; see TestOneShell). Each state lives in the file named
// beside it.
func TestPeerStepIsPure(t *testing.T) {
	shells := []string{"os", "repro/internal/transport", "repro/internal/consensus", "repro/internal/peer", "repro/internal/replica", "repro/internal/core"}
	for _, in := range []struct {
		dir, typ, file string
		banned         []string
	}{
		{"internal/peer", "peerState", "step.go", []string{"repro/internal/transport", "repro/internal/wal", "repro/internal/serving"}},
		{"internal/consensus", "state", "step.go", []string{"os"}},
		{"internal/cluster", "foldState", "fold.go", shells},
		{"internal/cluster", "detector", "detector.go", shells},
	} {
		banned := map[string]bool{"sync": true, "sync/atomic": true}
		for _, p := range in.banned {
			banned[p] = true
		}
		paths, err := filepath.Glob(filepath.Join(in.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var pure []string
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, readFile(t, path), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !holdsType(f, in.typ) {
				continue
			}
			pure = append(pure, path)
			rand := map[string]bool{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if banned[p] {
					t.Errorf("%s holds the step and imports %s", path, p)
				}
				if p == "math/rand" || p == "math/rand/v2" {
					name := filepath.Base(strings.TrimSuffix(p, "/v2"))
					if imp.Name != nil {
						name = imp.Name.Name
					}
					rand[name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s holds the step and starts a goroutine", path)
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && rand[x.Name] {
							t.Errorf("%s holds the step and calls %s.%s: jitter comes from a source the state owns", path, x.Name, sel.Sel.Name)
						}
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && n.Sel.Name != "Time" && n.Sel.Name != "Duration" {
						t.Errorf("%s holds the step and calls time.%s: the time is step's argument", path, n.Sel.Name)
					}
				}
				return true
			})
		}
		if !slices.Contains(pure, filepath.Join(in.dir, in.file)) {
			t.Errorf("%s or its step left %s (the step files found: %v)", in.typ, filepath.Join(in.dir, in.file), pure)
		}
	}
}

// TestNoPollingLoops: the protocol packages wake on events, not on the wall
// clock. A timer is the one a state's shell.Shell arms for a step's arm
// effect (the peer's resend, the consensus retries, the failure detector; see
// TestOneShell); a ticker, or a time.After,
// time.NewTimer or time.Sleep inside a loop, is a poll. A one-shot deadline
// outside a loop (a query's RoundTimeout) is not. Sampling remote state — Quiesce, the plane's Settle,
// a kick-off verb's wait for its kick — polls by design and runs on core's
// samplers (HoldStill, AwaitBalance), outside these packages: no member
// pushes its state.
func TestNoPollingLoops(t *testing.T) {
	for _, dir := range []string{"internal/peer", "internal/consensus", "internal/cluster", "internal/replica"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, readFile(t, path), 0)
			if err != nil {
				t.Fatal(err)
			}
			timeCall := func(n ast.Node, names ...string) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return false
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				x, ok := sel.X.(*ast.Ident)
				return ok && x.Name == "time" && slices.Contains(names, sel.Sel.Name)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if timeCall(n, "NewTicker", "Tick") {
					t.Errorf("%s: a ticker: arm a time.AfterFunc for the next due deadline instead", fset.Position(n.Pos()))
				}
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				}
				if body != nil {
					ast.Inspect(body, func(n ast.Node) bool {
						if timeCall(n, "After", "NewTimer", "Sleep") {
							t.Errorf("%s: a timer inside a loop polls: wake on the event instead", fset.Position(n.Pos()))
						}
						return true
					})
				}
				return true
			})
		}
	}
}

// TestOneShell: the peer, the Paxos log, the failure detector, the agreed
// fold, the replica manager, the serving hub's pass and the WAL's checkpoint
// run their steps in internal/shell, which owns the one timer per state, the
// Kick that steps a tick, and the runner every goroutine of theirs starts on,
// so Close waits for them. Nothing else in these packages makes a timer or
// starts a goroutine, but the survivors named here with their reasons.
func TestOneShell(t *testing.T) {
	survivors := map[string]string{
		"internal/cluster/metrics.go StartMetrics go":   "srv.Serve returns when the closer StartMetrics hands back shuts the listener",
		"internal/cluster/member.go depose go":          "a member deposed of its own node closes itself, and the plane's Close waits for the callback that found out",
		"internal/serving/serving.go Register go":       "each watcher's delivery goroutine (w.run) waits on its own queue's condition variable and exits once the watcher closes",
		"internal/serving/watcher.go run time.NewTimer": "a closed watcher's delivery goroutine gives its consumer CloseDrainTimeout to drain, then drops the tail",
	}
	seen := map[string]bool{}
	for _, dir := range []string{"internal/peer", "internal/consensus", "internal/cluster", "internal/replica", "internal/serving", "internal/wal"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, readFile(t, path), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					what := ""
					switch n := n.(type) {
					case *ast.GoStmt:
						what = "go"
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && (n.Sel.Name == "AfterFunc" || n.Sel.Name == "NewTimer") {
							what = "time." + n.Sel.Name
						}
					}
					if what == "" {
						return true
					}
					key := filepath.ToSlash(path) + " " + fd.Name.Name + " " + what
					seen[key] = true
					if survivors[key] == "" {
						t.Errorf("%s: %s in %s: step through the state's shell.Shell, or start it on its runner (Shell.Go)", fset.Position(n.Pos()), what, fd.Name.Name)
					}
					return true
				})
			}
		}
	}
	for key := range survivors {
		if !seen[key] {
			t.Errorf("survivor %q is gone: take it off the list", key)
		}
	}
}

// holdsType reports whether f declares the type name or a method on it.
func holdsType(f *ast.File, name string) bool {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := d.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name == name {
					return true
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return true
				}
			}
		}
	}
	return false
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

// TestEveryOptionHasACaller: an option survives only if a caller outside the
// tests needs it. Every exported field of these option types is set somewhere
// in the module's or the benchmark's non-test code, by a composite-literal key
// or an assignment. The type's own defaulting does not count: a literal in its
// constructor New<Type>, or an assignment through a parameter or receiver (a
// value handed in, being defaulted). A field only tests set is an unexported
// seam in its own package, and one nothing sets is a constant.
func TestEveryOptionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the benchmark")
	}
	options := []string{
		"wal.Options", "consensus.Options", "cluster.Options", "cluster.ControlPlaneOptions",
		"cluster.ReplicationOptions", "cluster.CoordinatorOptions", "cluster.MemberConfig",
		"replica.Options", "transport.BatcherOptions", "transport.MemOptions", "transport.TCP",
		"peer.Options", "serving.WatchOptions", "cluster.WatchOptions",
	}
	declared, set := map[string]bool{}, map[string]bool{} // "repro/internal/pkg.Type.Field"
	for _, pkg := range modulePackages(t) {
		for _, name := range options {
			path, typ, _ := strings.Cut("repro/internal/"+name, ".")
			if path != pkg.Path {
				continue
			}
			st := pkg.Types.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declared[path+"."+typ+"."+f.Name()] = true
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := typeKey(pkg.Info.TypeOf(n))
						if fd != nil && fd.Recv == nil && typ == pkg.Path+"."+strings.TrimPrefix(fd.Name.Name, "New") {
							return true
						}
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									set[typ+"."+id.Name] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							sel, ok := lhs.(*ast.SelectorExpr)
							if !ok || pkg.Info.Selections[sel] == nil || handedIn(pkg.Info, fd, sel) {
								continue
							}
							set[typeKey(pkg.Info.Selections[sel].Recv())+"."+sel.Sel.Name] = true
						}
					}
					return true
				})
			}
		}
	}
	var unset []string
	for field := range declared {
		if !set[field] {
			unset = append(unset, field)
		}
	}
	slices.Sort(unset)
	for _, field := range unset {
		t.Errorf("%s is set by no caller outside the tests: make it a constant, or an unexported field its own package's tests set", field)
	}
}

// typeKey names the named type behind t, through one pointer, as
// "path.Name" ("" for anything else).
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// handedIn reports whether the selector chain sel starts at a parameter or
// the receiver of fd.
func handedIn(info *types.Info, fd *ast.FuncDecl, sel *ast.SelectorExpr) bool {
	x := sel.X
	for {
		inner, ok := x.(*ast.SelectorExpr)
		if !ok {
			break
		}
		x = inner.X
	}
	root, ok := x.(*ast.Ident)
	if !ok || fd == nil {
		return false
	}
	for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			for _, name := range field.Names {
				if info.Defs[name] == info.Uses[root] {
					return true
				}
			}
		}
	}
	return false
}

var (
	moduleOnce sync.Once
	modulePkgs []*load.Package
	moduleErr  error
)

// modulePackages type-checks the module and the benchmark once, for the
// checks that ask who calls what.
func modulePackages(t *testing.T) []*load.Package {
	t.Helper()
	moduleOnce.Do(func() {
		for _, dir := range []string{".", "benchmark"} {
			pkgs, err := load.Load(dir, "./...")
			if err != nil {
				moduleErr = err
				return
			}
			modulePkgs = append(modulePkgs, pkgs...)
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// TestEveryFunctionHasACaller: a function survives only if the program needs
// it. Every exported function or method declared in internal/ is used by the
// module's or the benchmark's non-test code, and every unexported one by its
// own package's. What only its own package's tests call lives in a _test.go
// file there, and what one other package's tests call lives in theirs. The
// kit is the exception: helpers that the tests of other packages call and
// that cannot move into one package's tests (several need them, or they read
// their own package's unexported state), each with the packages whose tests
// call it.
func TestEveryFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the benchmark")
	}
	kit := map[string]string{ // name: the packages whose tests call it
		"(repro/internal/relalg.Tuple).Key":               "core, cq, peer, rules, serving, storage, workload",
		"(repro/internal/relalg.Value).NullLabel":         "rules, wal",
		"(*repro/internal/stats.Tally).Load":              "core",
		"(*repro/internal/transport.Mem).Partition":       "core",
		"(*repro/internal/transport.Mem).Heal":            "core",
		"(*repro/internal/transport.Mem).Dropped":         "core",
		"(*repro/internal/graph.Graph).ReachableSubgraph": "core",
		"(*repro/internal/peer.Peer).KnownEdges":          "core",
		"(*repro/internal/peer.Peer).Paths":               "core",
		"(*repro/internal/peer.Peer).AllMaximalPaths":     "core",
		"repro/internal/workload.Grid":                    "core, the root package",
		"repro/internal/workload.RandomDAG":               "core",
		"repro/internal/workload.RandomDigraph":           "core",
		"repro/internal/analysis/load.LoadFixture":        "analysis, the root package",
	}
	reported := map[string]bool{}
	for _, name := range uncalled(modulePackages(t), "repro/internal/") {
		reported[name] = true
		if kit[name] == "" {
			t.Errorf("%s has no caller outside the tests: delete it, move it into the _test.go files that call it, or put it on the kit", name)
		}
	}
	for name := range kit {
		if !reported[name] {
			t.Errorf("kit entry %s is gone or has a caller outside the tests: take it off the list", name)
		}
	}
}

// TestEveryFunctionHasACallerSeesThrough: the check counts a use of a generic
// method through an instantiation and of a method through an interface, and
// still reports a function only a test calls.
func TestEveryFunctionHasACallerSeesThrough(t *testing.T) {
	pkgs, err := load.LoadFixture("internal/analysis/testdata/src", "internal/callermain")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uncalled(pkgs, "internal/"), []string{"internal/callers.TestOnly"}; !slices.Equal(got, want) {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
}

// TestSourceIsGofmted: every Go file of the module and the benchmark, tests
// included, is as gofmt prints it, so CI's format step cannot be the first to
// notice.
func TestSourceIsGofmted(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the benchmark")
	}
	checked := 0
	for _, pkg := range modulePackages(t) {
		for _, f := range slices.Concat(pkg.Files, pkg.TestFiles) {
			path := pkg.Fset.File(f.Pos()).Name()
			src := readFile(t, path)
			out, err := format.Source(src)
			if err != nil {
				t.Errorf("%s: %v", path, err)
			} else if !bytes.Equal(out, src) {
				t.Errorf("%s is not gofmt-formatted: run gofmt -w on it", path)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("checked %d files: the loader found too few", checked)
	}
}

// uncalled names, by (*types.Func).FullName, the functions and methods pkgs
// declare that nothing in pkgs uses outside its own body: the exported ones of
// packages under scope, and every unexported one. A method that satisfies an
// interface is called through it, so it counts as used.
func uncalled(pkgs []*load.Package, scope string) []string {
	used := map[string]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin().FullName()] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" || fd.Name.Name == "main" && fd.Recv == nil {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn.FullName()] || fn.Exported() && !strings.HasPrefix(pkg.Path, scope) {
					continue
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && satisfiesSome(recv.Type(), fn.Name(), ifaces) {
					continue
				}
				out = append(out, fn.FullName())
			}
		}
	}
	slices.Sort(out)
	return out
}

// satisfiesSome reports whether recv, or a pointer to it, satisfies one of
// the ifaces that has a method called name. Signatures are compared by their
// printed form: a load imports each dependency from export data, so one named
// type can stand behind two objects.
func satisfiesSome(recv types.Type, name string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	methods := map[string]string{}
	ms := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		methods[m.Name()] = signatureShape(m.Type().(*types.Signature))
	}
	for _, it := range ifaces {
		declares, all := false, true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			declares = declares || m.Name() == name
			all = all && methods[m.Name()] == signatureShape(m.Type().(*types.Signature))
		}
		if declares && all {
			return true
		}
	}
	return false
}

// signatureShape prints sig's parameter and result types without their names.
func signatureShape(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
