package cellfi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modPath is the module path every package under the repo root shares.
const modPath = "cellfi"

// pkg is one type-checked non-test package of the module.
type pkg struct {
	path  string // import path
	dir   string // relative to the repo root
	files []*ast.File
	names []string // file names, relative to the repo root, parallel to files
	types *types.Package
	info  *types.Info
	tests []string // *_test.go file names, relative to the repo root
}

// universe is every module package, type-checked once from source.
type universe struct {
	fset   *token.FileSet
	pkgs   []*pkg // in dependency order
	byPath map[string]*pkg
}

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
}

// loadUniverse lists ./... with its dependencies and type-checks every
// module package from source; the stdlib comes from the source importer,
// so nothing is fetched or built.
func loadUniverse(t *testing.T) *universe {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// The stdlib is checked for its declarations only; its cgo variants
	// add nothing to them and would need a C toolchain.
	build.Default.CgoEnabled = false
	u := &universe{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	src := importer.ForCompiler(u.fset, "source", nil).(types.ImporterFrom)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := u.byPath[path]; ok {
			return p.types, nil
		}
		return src.ImportFrom(path, root, 0)
	})
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPkg
		if err := dec.Decode(&lp); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if lp.Module == nil || lp.Module.Path != modPath {
			continue
		}
		rel, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			t.Fatal(err)
		}
		p := &pkg{path: lp.ImportPath, dir: filepath.ToSlash(rel)}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(u.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
			p.names = append(p.names, pathJoin(p.dir, name))
		}
		for _, name := range append(lp.TestGoFiles, lp.XTestGoFiles...) {
			p.tests = append(p.tests, pathJoin(p.dir, name))
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(lp.ImportPath, u.fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		u.pkgs = append(u.pkgs, p)
		u.byPath[p.path] = p
	}
	return u
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func pathJoin(dir, name string) string {
	if dir == "." {
		return name
	}
	return dir + "/" + name
}

// TestGuards holds the repo's anti-regrowth rules: no export that only
// tests reach, no option that only tests set, no selector, option or
// type a simplification deleted, one binary that alone owns the
// process, trace records whose args reach the encoder, and docs whose
// backticked references resolve. It type-checks the whole module once
// (~8 s on a 2-core machine).
func TestGuards(t *testing.T) {
	u := loadUniverse(t)
	t.Run("DeadExports", func(t *testing.T) { checkDeadExports(t, u) })
	t.Run("UnwrittenFields", func(t *testing.T) { checkUnwrittenFields(t, u) })
	t.Run("CollapsedPaths", func(t *testing.T) { checkCollapsedPaths(t, u) })
	t.Run("OneBinary", func(t *testing.T) { checkOneBinary(t, u) })
	t.Run("TraceArgs", func(t *testing.T) { checkTraceArgs(t, u) })
	t.Run("DocRefs", func(t *testing.T) { checkDocRefs(t, u) })
}

// deadAllow lists exports no non-test code reaches that stay anyway,
// keyed "package-dir Name", each with its reason.
var deadAllow = map[string]string{
	"internal/netgraph Valid":          "the oracle and core tests use it as their cross-package referee",
	"internal/netgraph MinSubchannels": "TestGreedyVsExact referees GreedyColor with it; ROADMAP item 2 needs the exact optimum",
	"internal/paws Unwrap":             "implements the errors.Unwrap interface",
	"internal/trace WriteTo":           "implements io.WriterTo",
	"internal/chaos Run":               "the chaos-soak scenario harness, driven by its tests; ROADMAP item 6 folds it into metro",
	"internal/metro SetRecorder":       "TestMetroGolden and TestMetroShardEquivalence pin the city's trace stream through it",
	"internal/phy Bits":                "TestLTECQITableConsistency referees the CQI table's efficiencies with it (bits x code rate)",
}

// checkDeadExports fails on every exported function, method, interface
// method, constant, variable and type declared under internal/ that no
// non-test code of the module reaches. Reached is a least fixpoint: a
// use counts once every export whose declaration holds it (for a
// method, its receiver type too) is reached, so an export used only by
// itself, its own methods or other unreached exports stays unreached.
// A method of a reached type is also reached when the type satisfies a
// stdlib interface, or a module interface whose method of that name is
// reached, that declares it. Only declarations in module files count,
// so methods a type gets from outside the module (sim.Time is an alias
// of time.Duration) are not checked. An Example is documentation, not
// a reacher: like every test, it keeps no export alive.
func checkDeadExports(t *testing.T, u *universe) {
	type use struct {
		obj    types.Object
		owners []types.Object // the exports whose declarations hold the use
	}
	type export struct {
		pos  token.Position
		dir  string
		uses []use
	}
	exports := map[types.Object]*export{}
	var uses []use
	for _, p := range u.pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		add := func(id *ast.Ident, obj types.Object) {
			if internal && id.IsExported() && obj != nil {
				exports[obj] = &export{pos: u.fset.Position(id.Pos()), dir: p.dir}
			}
		}
		collect := func(node ast.Node, owners ...types.Object) {
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil {
						uses = append(uses, use{obj: origin(obj), owners: owners})
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name]
					add(d.Name, fn)
					if recv := recvNamed(fn); recv != nil {
						collect(d, fn, recv.Obj())
					} else {
						collect(d, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							add(s.Name, obj)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										add(n, p.info.Defs[n])
									}
								}
							}
							collect(s, obj)
						case *ast.ValueSpec:
							var owners []types.Object
							for _, n := range s.Names {
								add(n, p.info.Defs[n])
								owners = append(owners, p.info.Defs[n])
							}
							collect(s, owners...)
						}
					}
				}
			}
		}
	}
	for _, us := range uses {
		if e := exports[us.obj]; e != nil {
			e.uses = append(e.uses, us)
		}
	}

	ifaces := u.interfaces()
	reached := map[types.Object]bool{}
	allowed := map[string]bool{}
	for obj, e := range exports {
		if key := e.dir + " " + obj.Name(); deadAllow[key] != "" {
			reached[obj], allowed[key] = true, true
		}
	}
	for key := range deadAllow {
		if !allowed[key] {
			t.Errorf("deadAllow entry %q names no export; drop it", key)
		}
	}
	live := func(obj types.Object) bool { return exports[obj] == nil || reached[obj] }
	for changed := true; changed; {
		changed = false
		for obj, e := range exports {
			if reached[obj] {
				continue
			}
			for _, us := range e.uses {
				ok := true
				for _, o := range us.owners {
					ok = ok && live(o)
				}
				if ok {
					reached[obj] = true
					break
				}
			}
			if !reached[obj] && satisfies(obj, ifaces, live) {
				reached[obj] = true
			}
			changed = changed || reached[obj]
		}
	}

	var dead []string
	for obj, e := range exports {
		if !reached[obj] {
			dead = append(dead, e.pos.String()+": "+describe(obj))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("exports no non-test code reaches (delete them, or add them to deadAllow with a reason):\n%s", strings.Join(dead, "\n"))
	}
}

// unwrittenAllow lists exported fields non-test code reads but never
// writes that stay anyway, keyed "package-dir Type.Field", each with
// its reason.
// A trailing * matches a prefix.
var unwrittenAllow = map[string]string{
	"internal/core ChannelSelector.Listen":   "ROADMAP item 27 decides its fate: a world's network listen sets it, or it goes",
	"internal/chaos Config.*":                "chaos.Run is the test-driven soak harness (see deadAllow); its tests are its callers",
	"internal/propagation CacheStats.Hits":   "netsim.Network.LinkCacheStats reports zeros for bench/, which still reads it (ROADMAP item 3)",
	"internal/propagation CacheStats.Misses": "netsim.Network.LinkCacheStats reports zeros for bench/, which still reads it (ROADMAP item 3)",
	"internal/paws Client.Trace":             "the paws-query record's tests set it; no world wires a client's recorder yet (see CHANGES.md)",
	"internal/paws Client.TraceAP":           "tags the paws-query record, as Client.Trace",
	"internal/paws Client.TraceNow":          "stamps the paws-query record, as Client.Trace",
	"internal/faults Injector.Sleep":         "the test clock for Latency faults; nil sleeps in real time",
}

// checkUnwrittenFields fails on every option only tests set: an
// exported, untagged, non-embedded field of an exported struct type
// declared under internal/ that non-test code reads but never writes.
// Fields with struct tags are wire types, filled by a decoder.
func checkUnwrittenFields(t *testing.T, u *universe) {
	allowed := map[string]bool{}
	for _, f := range unwrittenFields(u) {
		if key := allowKey(f.key); key != "" {
			allowed[key] = true
			continue
		}
		t.Errorf("%s: %s is read but never written by non-test code; make it a constant or delete it (or add it to unwrittenAllow with a reason)", f.pos, f.key)
	}
	for key := range unwrittenAllow {
		if !allowed[key] {
			t.Errorf("unwrittenAllow entry %q names no unwritten field; drop it", key)
		}
	}

	// A deleted option planted back must be reported, and nothing
	// else: a keyed, an unkeyed and a pointer-method write each count.
	planted := `package invariant
type Checker struct{ Deadline, MaxViolations int }
func New() *Checker { return &Checker{Deadline: 1} }
func (c *Checker) bound() int { return c.Deadline + c.MaxViolations }
type counter struct{ n int }
func (c *counter) Add(d int) { c.n += d }
type Metrics struct{ Queries counter }
func (m *Metrics) hit() int { m.Queries.Add(1); return m.Queries.n }
type Pair struct{ A, B int }
func sum() int { p := Pair{1, 2}; return p.A + p.B }
`
	var got []string
	for _, f := range unwrittenFields(plantedUniverse(t, "internal/invariant", planted)) {
		got = append(got, f.key)
	}
	if want := "internal/invariant Checker.MaxViolations"; strings.Join(got, ",") != want {
		t.Errorf("planted source: unwritten fields %q, want [%s]", got, want)
	}
}

// plantedUniverse type-checks one import-free source file as the only
// package of a universe, at dir.
func plantedUniverse(t *testing.T, dir, src string) *universe {
	t.Helper()
	u := &universe{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	f, err := parser.ParseFile(u.fset, dir+"/planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &pkg{path: modPath + "/" + dir, dir: dir, files: []*ast.File{f}, names: []string{dir + "/planted.go"},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
	if p.types, err = new(types.Config).Check(p.path, u.fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	u.pkgs = append(u.pkgs, p)
	u.byPath[p.path] = p
	return u
}

// allowKey returns the unwrittenAllow entry that matches key, or "".
func allowKey(key string) string {
	for k := range unwrittenAllow {
		if k == key || strings.HasSuffix(k, "*") && strings.HasPrefix(key, strings.TrimSuffix(k, "*")) {
			return k
		}
	}
	return ""
}

// unwrittenField is one field checkUnwrittenFields flags.
type unwrittenField struct {
	pos token.Position
	key string // "package-dir Type.Field"
}

// unwrittenFields returns, sorted by key, the fields of exported
// internal/ struct types that non-test code reads and never writes. A
// write is an assignment, increment or range assignment to the field
// (or to anything reached through it), taking its address (calling a
// pointer method on it does), or a keyed composite literal naming it;
// an unkeyed literal writes every field of its type. Every other use
// is a read.
func unwrittenFields(u *universe) []unwrittenField {
	keys := map[*types.Var]unwrittenField{}
	for _, p := range u.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					keys[f] = unwrittenField{u.fset.Position(f.Pos()), p.dir + " " + tn.Name() + "." + f.Name()}
				}
			}
		}
	}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range u.pkgs {
		field := func(id *ast.Ident) *types.Var {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
				return origin(v).(*types.Var)
			}
			return nil
		}
		writes := map[*ast.Ident]bool{}
		var write func(e ast.Expr)
		write = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				write(e.X)
			case *ast.StarExpr:
				write(e.X)
			case *ast.IndexExpr:
				write(e.X)
			case *ast.SelectorExpr:
				writes[e.Sel] = true
				write(e.X)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						write(e)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						write(n.Key)
						write(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.SelectorExpr:
					if sel := p.info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						if _, ptrX := sel.Recv().Underlying().(*types.Pointer); ptrRecv && !ptrX {
							write(n.X)
						}
					}
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							written[origin(st.Field(i)).(*types.Var)] = true
						}
						break
					}
					for _, e := range n.Elts {
						if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v := field(id); v != nil {
						if writes[id] {
							written[v] = true
						} else {
							read[v] = true
						}
					}
				}
				return true
			})
		}
	}
	var out []unwrittenField
	for v, f := range keys {
		if read[v] && !written[v] {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// interfaces returns every named interface type declared at package
// level in the module or in a stdlib package the module imports,
// directly or not.
func (u *universe) interfaces() []*types.Named {
	out := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && types.IsInterface(n) && n.TypeParams() == nil {
					out = append(out, n)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range u.pkgs {
		walk(p.types)
	}
	return out
}

// satisfies reports whether obj is a method of a live type that
// implements one of ifaces through a live method of obj's name.
func satisfies(obj types.Object, ifaces []*types.Named, live func(types.Object) bool) bool {
	recv := recvNamed(obj)
	if recv == nil || types.IsInterface(recv) || !live(recv.Obj()) {
		return false
	}
	for _, n := range ifaces {
		it := n.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if m.Name() != obj.Name() || !live(m) {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// describe names obj the way the docs do: pkg.Name or pkg.Type.Method.
func describe(obj types.Object) string {
	if recv := recvNamed(obj); recv != nil {
		return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvNamed returns the named receiver type of a method (for an
// interface method, the interface), or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// forbidden names declarations a simplification deleted: metro, wifi
// and netsim have one neighbour-enumeration mode each, the runner no
// shard telemetry, ring-size or slack option, netsim one execution
// mode, a constant oracle margin and a constant fading-block count, a
// shard cluster one face (Run windows), metro one moment accumulator,
// no link-ID slab (the fused row kernel forms link IDs in registers)
// and no incumbent model of its own (spectrum.Registry is the one; the
// fiat pop-ups forced a second sweep kernel), the link cache no
// invalidation (no caller ever moved a node under it),
// internal/experiments one sweep path, a run one regulatory referee
// (the offline `cellfi trace verify` replay; a world that needs a
// checker online takes it as its recorder, so the runner has no
// invariant hook, the checker no tee and chaos no campaign adapter),
// lte one transform (the radix-2 FFT; the PRACH detector pads to
// a power of two, so Bluestein's arbitrary-length DFT went), and the
// client reconnect one model (Fig. 6's measured constant; lte's band
// scan and Msg1-4 attach state machine fed nothing), and no option only
// tests set: the vacate gate has no sabotage switch (a mutant in
// mutants_test.go proves the watchdog instead), the PAWS server no FCC
// registration gate, and the client's failover thresholds, the PF
// scheduler's forgetting factor, the checker's retention and the plot
// size are constants. An entry is "dir name": dir "" is the whole
// module, a trailing * matches a prefix, and Type.Method names a
// method or Type.Field a field of a package-level struct type.
var forbidden = []string{
	" OracleInterferenceMarginDB",
	"internal/propagation LinkCache.Invalidate",
	"internal/metro nbrLink*",
	" AddShardStats",
	" StreamStat",
	" InvariantSlack",
	" TraceRing",
	"internal/netsim Shards",
	" BlocksPerEpoch",
	"internal/shard Cluster.Do",
	" trialFleet",
	" schemeSweep",
	" runFig9Trial",
	"internal/metro IncumbentEvent",
	"internal/metro Incumbents",
	"internal/metro incChange",
	"internal/metro apDownCnt",
	"internal/metro incTimeline",
	"internal/metro incNext",
	"internal/metro hasInc",
	"internal/metro started",
	"internal/metro buildIncTimeline",
	"internal/metro applyIncumbents",
	"internal/metro ensureStarted",
	"internal/runner Invariant*",
	"internal/runner closeInvariants",
	"internal/invariant Checker.Tee",
	"internal/invariant Checker.Err",
	"internal/invariant tee",
	"internal/chaos Spec",
	"internal/chaos Matrix",
	"internal/chaos Result.Err",
	"internal/lte DFT",
	"internal/lte DFTPlan",
	"internal/lte NewDFTPlan",
	"internal/lte IFFT",
	"internal/lte CellSearcher",
	"internal/lte NewCellSearcher",
	"internal/lte Band",
	"internal/lte DefaultScanBands",
	"internal/lte RRCSim",
	"internal/lte NewRRCSim",
	"internal/lte RRCState",
	"internal/lte AttachResult",
	"internal/lte Environment.SNRAtDistance",
	"internal/core ChannelSelector.UnsafeIgnoreVacateBudget",
	"internal/chaos Config.BreakVacate",
	"internal/paws Server.RequireRegistration",
	"internal/paws Server.registered",
	"internal/paws Server.regMu",
	"internal/paws Client.FailoverAfter",
	"internal/paws Client.PrimaryProbeAfter",
	"internal/lte Cell.ActiveSubchannels",
	"internal/lte ProportionalFair.Beta",
	"internal/propagation Fading.Disabled",
	"internal/invariant Checker.MaxViolations",
	"internal/stats PlotOptions",
	"internal/stats DefaultPlotOptions",
}

// checkCollapsedPaths fails if a deleted selector, option, type or
// helper is declared again, or a kept one is reached from where it
// must not be.
func checkCollapsedPaths(t *testing.T, u *universe) {
	owners := map[types.Object]string{} // field -> its package-level struct type
	for _, p := range u.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owners[st.Field(i)] = tn.Name()
					}
				}
			}
		}
	}
	for _, f := range forbidden {
		dir, name, _ := strings.Cut(f, " ")
		for _, p := range u.pkgs {
			if dir != "" && p.dir != dir {
				continue
			}
			for id, obj := range p.info.Defs {
				if obj == nil {
					continue
				}
				key := obj.Name()
				if strings.Contains(name, ".") {
					if recv := recvNamed(obj); recv != nil {
						key = recv.Obj().Name() + "." + key
					} else if owner := owners[obj]; owner != "" {
						key = owner + "." + key
					}
				}
				if key == name || strings.HasSuffix(name, "*") && strings.HasPrefix(key, strings.TrimSuffix(name, "*")) {
					t.Errorf("%s: %s is declared again (see CHANGES.md)", u.fset.Position(id.Pos()), key)
				}
			}
		}
	}

	// netsim's spatial-index knob is a no-op field bench/ still sets.
	netsim := u.byPath[modPath+"/internal/netsim"].types
	cfg := netsim.Scope().Lookup("Config").Type()
	knob, _, _ := types.LookupFieldOrMethod(cfg, false, netsim, "UseSpatialIndex")
	u.eachUse(func(p *pkg, file string, pos token.Pos, obj types.Object) {
		if knob != nil && obj == knob && p.path != modPath+"/bench" {
			t.Errorf("%s: netsim.Config.UseSpatialIndex does nothing; only bench/ may still set it", u.fset.Position(pos))
		}
		// wifi's static link budget is a dense per-pair table, like netsim's.
		if p.dir == "internal/wifi" && obj.Pkg() != nil && obj.Pkg().Path() == modPath+"/internal/propagation" {
			if recv := recvNamed(obj); strings.Contains(obj.Name(), "LinkCache") || recv != nil && recv.Obj().Name() == "LinkCache" {
				t.Errorf("%s: internal/wifi references propagation.%s", u.fset.Position(pos), obj.Name())
			}
		}
		// metro's sweep has one kernel, the fused FadeRow.WeightedSum pass.
		if p.dir == "internal/metro" && obj.Pkg() != nil && describe(obj) == "propagation.FadeRow.Gain" {
			t.Errorf("%s: internal/metro draws per link through propagation.FadeRow.Gain; the sweep's one kernel is FadeRow.WeightedSum", u.fset.Position(pos))
		}
	})

	// internal/experiments has one sweep path: sweep's arm.run builds
	// every backlogged netsim network, and Fig. 9c's web-workload driver
	// is the one other caller.
	files := map[string]bool{}
	newNet := netsim.Scope().Lookup("New")
	u.eachUse(func(p *pkg, file string, _ token.Pos, obj types.Object) {
		if p.dir == "internal/experiments" && obj == newNet {
			files[file] = true
		}
	})
	if len(files) > 2 {
		t.Errorf("netsim.New is called from %d non-test files of internal/experiments, want at most 2 (go through sweep.go): %v", len(files), sortedKeys(files))
	}

	// The doc-side halves: the oracle margin is a constant no doc names
	// as a field, and the six per-subsystem bench harnesses the one
	// benchmark replaced are named only in the history documents.
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude"} {
		grepFiles(t, doc, regexp.MustCompile(`OracleInterference[M]arginDB`), "netsim's oracle margin is a constant", nil)
	}
	legacy := regexp.MustCompile(`BENCH_[a-z]+\.json|bench[d]iff|_BENCH[_]OUT`)
	history := map[string]bool{"bench/README.md": true, "CHANGES.md": true, "ROADMAP.md": true}
	grepFiles(t, ".", legacy, "a legacy bench harness reappeared (see bench/README.md)", history)
}

// eachUse calls fn for every identifier use in the module's non-test
// code, with the file, relative to the repo root, that holds it.
func (u *universe) eachUse(fn func(p *pkg, file string, pos token.Pos, obj types.Object)) {
	for _, p := range u.pkgs {
		for i, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil {
						fn(p, p.names[i], id.Pos(), origin(obj))
					}
				}
				return true
			})
		}
	}
}

// grepFiles fails on every line matching re in the regular files under
// root (or root itself), skipping .git, build output and the files in
// skip.
func grepFiles(t *testing.T, root string, re *regexp.Regexp, why string, skip map[string]bool) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if d.Name() == ".git" || path == "bench/out" {
				return filepath.SkipDir
			}
			return nil
		}
		if skip[path] {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if re.MatchString(line) {
				t.Errorf("%s:%d: %s: %s", path, i+1, why, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkOneBinary fails unless the module's package mains are exactly
// cmd/cellfi and the benchmark, and cmd/cellfi/main.go alone owns the
// process: exit codes, signals, the global flag set and the real
// stdout/stderr. Verbs get a context, their args and two writers,
// which is what lets main_test.go drive every verb in-process.
// internal/ owns none of these either. Walkthroughs are Example tests
// of the package they show, so tier-1 runs them and checks their
// output.
func checkOneBinary(t *testing.T, u *universe) {
	var mains []string
	for _, p := range u.pkgs {
		if p.types.Name() == "main" {
			mains = append(mains, p.dir)
		}
	}
	sort.Strings(mains)
	if strings.Join(mains, " ") != "bench cmd/cellfi" {
		t.Errorf("the package mains must be exactly bench and cmd/cellfi; found %v", mains)
	}
	owned := map[string]bool{"os.Exit": true, "os.Stdout": true, "os.Stderr": true, "flag.Parse": true,
		"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true}
	u.eachUse(func(p *pkg, file string, pos token.Pos, obj types.Object) {
		if obj.Pkg() == nil || file == "cmd/cellfi/main.go" || !strings.HasPrefix(p.dir, "cmd/") && !strings.HasPrefix(p.dir, "internal/") {
			return
		}
		if name := obj.Pkg().Path() + "." + obj.Name(); owned[name] || obj.Pkg().Path() == "os/signal" {
			t.Errorf("%s: %s: only cmd/cellfi/main.go may exit, catch signals, parse the global flag set or write os.Stdout/os.Stderr", u.fset.Position(pos), name)
		}
	})
}

// checkTraceArgs fails on every trace.Record composite literal that sets
// Args but not N: the encoder writes only Args[:N], so such a record
// reaches disk with its timestamp and kind alone.
func checkTraceArgs(t *testing.T, u *universe) {
	record := u.byPath[modPath+"/internal/trace"].types.Scope().Lookup("Record").Type()
	for _, p := range u.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !types.Identical(p.info.TypeOf(lit), record) {
					return true
				}
				set := map[string]bool{}
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
				if set["Args"] && !set["N"] {
					t.Errorf("%s: trace.Record sets Args but not N; the encoder writes only Args[:N]", u.fset.Position(lit.Pos()))
				}
				return true
			})
		}
	}
}

// docRef is a backticked pkg.Ident, pkg.Type.Method or pkg.TestName,
// optionally written as a call or composite literal.
var docRef = regexp.MustCompile("`" + `\(?\*?([a-z][a-z0-9]*)\.([A-Za-z_]\w*)\)?(?:\.([A-Za-z_]\w*))?(?:[({ ][^` + "`" + `]*)?` + "`")

// checkDocRefs fails on every backticked reference to a module package
// in the docs that names nothing: an identifier in the package's scope,
// a field or method of one of its types, or a test, benchmark, fuzz
// target or example in its _test.go files. BENCHMARK.json's per-layer
// metric names are pkg.metric too and pass.
func checkDocRefs(t *testing.T, u *universe) {
	pkgs := map[string]*pkg{}
	for _, p := range u.pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			pkgs[p.types.Name()] = p
		}
	}
	metrics := map[string]bool{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		metrics[m.Name] = true
	}
	tests := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.tests {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					tests[p.types.Name()+"."+fn.Name.Name] = true
				}
			}
		}
	}
	resolves := func(pkgName, name, member string) bool {
		p := pkgs[pkgName]
		if p == nil || metrics[pkgName+"."+name] {
			return true
		}
		obj := p.types.Scope().Lookup(name)
		if member == "" {
			return obj != nil || tests[pkgName+"."+name]
		}
		if _, ok := obj.(*types.TypeName); !ok {
			return false
		}
		m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.types, member)
		return m != nil
	}
	docs := &docIndex{resolves: resolves, lines: map[string]int{}, bases: map[string][]string{}, targets: map[string]bool{}}
	if err := docs.load(); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docs.problems(doc, string(b)) {
			t.Error(p)
		}
	}
	// One planted bad reference of each kind must be reported.
	planted := "`wifi.NoSuchThing` `internal/wifi/nosuch.go` `bench/imdense.go:9999` `nosuch_test.go` `lte/nosuch`\n" +
		"`make nosuch`\n```\nmake nosuch-either\n```\n"
	if got := docs.problems("planted.md", planted); len(got) != 7 {
		t.Errorf("planted doc: %d problems reported, want 7:\n%s", len(got), strings.Join(got, "\n"))
	}
}

// docIndex answers what a doc's backticked references may name: module
// identifiers (resolves), repo files and directories by path (lines:
// path -> line count, -1 for a directory), files by basename, and
// Makefile targets.
type docIndex struct {
	resolves func(pkgName, name, member string) bool
	lines    map[string]int
	bases    map[string][]string
	targets  map[string]bool
}

var (
	// docPath is a backticked path: a file with one of the repo's
	// extensions, optionally :line or :line,line, or a directory path
	// with a slash (resolvePath skips those outside the repo, such as
	// math/rand).
	docPath = regexp.MustCompile("`" + `(?:\./)?([\w.-]+(?:/[\w.-]+)*\.(?:go|md|json|sh|golden|mod)|[\w-]+/(?:[\w-]+(?:/[\w-]+)*/?)?)(?::(\d+)(?:[,–-](\d+))?)?` + "`")
	// docMakeInline and docMakeFenced find a make invocation: anywhere
	// in a backticked span, or at the start of a fenced line after env
	// assignments.
	docMakeInline = regexp.MustCompile(`(?:^|\s)make\s+([a-z][\w-]*)`)
	docMakeFenced = regexp.MustCompile(`^\s*(?:\w+=\S*\s+)*make\s+([a-z][\w-]*)`)
	codeSpan      = regexp.MustCompile("`[^`]+`")
	makeTarget    = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
)

// load walks the repo for its files and directories and reads the
// Makefile's targets.
func (d *docIndex) load() error {
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if e.IsDir() {
			if e.Name() == ".git" || path == "bench/out" {
				return filepath.SkipDir
			}
			d.lines[path] = -1
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d.lines[path] = bytes.Count(b, []byte("\n")) + 1
		d.bases[e.Name()] = append(d.bases[e.Name()], path)
		return nil
	})
	if err != nil {
		return err
	}
	b, err := os.ReadFile("Makefile")
	if err != nil {
		return err
	}
	for _, m := range makeTarget.FindAllStringSubmatch(string(b), -1) {
		d.targets[m[1]] = true
	}
	return nil
}

// problems lists every reference in one doc that names nothing.
// Identifier and path references are read outside fenced blocks, make
// invocations everywhere. A path resolves against the repo root, then
// internal/, then (a bare file name) as the basename of exactly one
// file; a line number must lie inside the file.
func (d *docIndex) problems(doc, text string) []string {
	var out []string
	bad := func(i int, ref, why string) { out = append(out, fmt.Sprintf("%s:%d: %s %s", doc, i+1, ref, why)) }
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			if m := docMakeFenced.FindStringSubmatch(line); m != nil && !d.targets[m[1]] {
				bad(i, "make "+m[1], "is no Makefile target")
			}
			continue
		}
		for _, m := range docRef.FindAllStringSubmatch(line, -1) {
			if !d.resolves(m[1], m[2], m[3]) {
				bad(i, m[0], "names nothing in the module")
			}
		}
		for _, m := range docPath.FindAllStringSubmatch(line, -1) {
			if why := d.resolvePath(m[1], m[2], m[3]); why != "" {
				bad(i, m[0], why)
			}
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			if m := docMakeInline.FindStringSubmatch(strings.Trim(span, "`")); m != nil && !d.targets[m[1]] {
				bad(i, "make "+m[1], "is no Makefile target")
			}
		}
	}
	return out
}

// resolvePath returns why a path reference (with optional line numbers)
// names nothing, or "" when it resolves.
func (d *docIndex) resolvePath(path, from, to string) string {
	path = strings.TrimSuffix(path, "/")
	if !strings.Contains(path, ".") {
		// A directory path counts only when it starts at a top-level
		// directory or an internal/ package.
		first, _, _ := strings.Cut(path, "/")
		if d.lines[first] != -1 && d.lines["internal/"+first] != -1 {
			return ""
		}
	}
	lines, ok := d.lines[path]
	if !ok {
		lines, ok = d.lines["internal/"+path]
	}
	if !ok && !strings.Contains(path, "/") {
		switch files := d.bases[path]; len(files) {
		case 0:
		case 1:
			lines, ok = d.lines[files[0]]
		default:
			return "names several files; give its directory"
		}
	}
	if !ok {
		return "is no file or directory in the repo"
	}
	for _, l := range []string{from, to} {
		if n, err := strconv.Atoi(l); err == nil && n > lines {
			return fmt.Sprintf("points past the end of the file (%d lines)", lines)
		}
	}
	return ""
}
