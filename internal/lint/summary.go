package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// This file implements the interprocedural core under the v3 analyzers
// (wire-taint, hotpath-alloc, wire-determinism, atomic-mix). The
// single-function analyzers of v1/v2 miss exactly the bugs that cross a
// call boundary: a `make` sized by a length that flowed through two
// helpers, a closure allocated three frames below an annotated hot path,
// a timestamp that reaches wire bytes through an append helper. The core
// computes one FuncSummary per function — bottom-up over the
// strongly-connected components of a module-local call graph, with a
// bounded fixpoint inside each SCC so mutual recursion terminates — and
// the analyzers then consult summaries at call sites instead of giving up
// at them.
//
// The model is deliberately approximate (AST-level, flow-insensitive per
// variable, fields untracked, interface calls not followed); every
// approximation leans toward the convention of the rest of the suite:
// cheap to compute, wrong only in ways a //lint:allow comment can state.

// maxTrackedParams bounds the per-parameter flow bitmask.
const maxTrackedParams = 64

// maxSummarySites caps the per-function site lists so pathological code
// cannot bloat the summary cache.
const maxSummarySites = 16

// ParamFlow is a bitmask of the sinks a parameter's value reaches inside
// a function (directly or through its callees) without passing an
// ordering-comparison guard first.
type ParamFlow uint8

const (
	// FlowAllocSize: the parameter reaches the size operand of
	// make/slices.Grow/(*bytes.Buffer).Grow.
	FlowAllocSize ParamFlow = 1 << iota
	// FlowIndex: the parameter is used to index a slice or array.
	FlowIndex
	// FlowLoopBound: the parameter bounds a for loop (condition or
	// integer range).
	FlowLoopBound
	// FlowWireOut: the parameter's value is written into wire bytes (a
	// []byte store, append, binary.Put*, or a Send/Write sink).
	FlowWireOut
	// FlowReturn: the parameter's value flows into a return value.
	FlowReturn
)

// flowSinkMask selects the untrusted-input sinks wire-taint cares about.
const flowSinkMask = FlowAllocSize | FlowIndex | FlowLoopBound

// SiteRef is a serializable source position plus a short description. It
// survives the summary cache, unlike token.Pos.
type SiteRef struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	What string `json:"what"`
}

// String renders the site with at most the last two path segments so that
// messages embedding a witness site (and baseline entries matching on those
// messages) stay identical across checkout locations.
func (s SiteRef) String() string {
	file := s.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
			file = file[j+1:]
		}
	}
	return fmt.Sprintf("%s:%d:%d", file, s.Line, s.Col)
}

// Position converts the ref back to a token.Position for reporting.
func (s SiteRef) Position() token.Position {
	return token.Position{Filename: s.File, Line: s.Line, Column: s.Col}
}

// CallEdge records one static call to a module-internal function.
type CallEdge struct {
	Callee string  `json:"callee"`
	Site   SiteRef `json:"site"`
	// Cold marks a call made only on an error/panic branch; hotpath-alloc
	// does not charge the caller for a cold callee's allocations.
	Cold bool `json:"cold,omitempty"`
	// Held lists the module-wide mutex keys held at the call site
	// (positional window model); lock-order composes the callee's
	// transitive acquisitions against them.
	Held []string `json:"held,omitempty"`
	// Go marks a call made from a goroutine-spawned context: `go f()`
	// itself, or any call inside a go'd function literal.
	Go bool `json:"go,omitempty"`
}

// LockUse records one acquisition of a module-wide-keyed mutex.
type LockUse struct {
	// Field is the mutex key: "pkgpath.Type.Field" for struct fields,
	// "pkgpath.Name" for package-level mutexes.
	Field string  `json:"field"`
	Read  bool    `json:"read,omitempty"`
	Site  SiteRef `json:"site"`
}

// LockPair records one nested acquisition inside a single function:
// Acquired was taken at Site while Held was already held.
type LockPair struct {
	Held     string  `json:"held"`
	Acquired string  `json:"acquired"`
	HeldRead bool    `json:"held_read,omitempty"`
	AcqRead  bool    `json:"acq_read,omitempty"`
	Site     SiteRef `json:"site"`
}

// FieldWrite records one ordinary (non-atomic) store to a module-internal
// struct field, with the concurrency context it happened in.
type FieldWrite struct {
	Field string  `json:"field"`
	Site  SiteRef `json:"site"`
	// Go: the store sits inside a go'd function literal.
	Go bool `json:"go,omitempty"`
	// Locked: the store sits inside a mutex hold window of its lock scope.
	Locked bool `json:"locked,omitempty"`
}

// ChanOp records one operation on a module-wide-keyed channel (a struct
// field or package-level var of channel type). Kind is one of "send",
// "close", "make-unbuffered", "make-buffered".
type ChanOp struct {
	Field string  `json:"field"`
	Kind  string  `json:"kind"`
	Site  SiteRef `json:"site"`
}

// FieldUse records one access to a struct field, keyed as
// "pkgpath.Type.Field".
type FieldUse struct {
	Field string  `json:"field"`
	Site  SiteRef `json:"site"`
}

// FuncSummary is the per-function interprocedural fact set. Summaries are
// JSON-serializable so cmd/sketchlint can cache them keyed by package
// content hash.
type FuncSummary struct {
	// Key is the types.Func full name, e.g.
	// "sketchml/internal/codec.(*SketchML).Encode".
	Key string `json:"key"`
	// Pkg is the import path of the defining package.
	Pkg string `json:"pkg"`
	// Hotpath is set by a //sketchlint:hotpath directive in the doc
	// comment.
	Hotpath bool `json:"hotpath,omitempty"`
	// ReturnsPool: a return value is sync.Pool memory (the get-helper
	// idiom); calls to such functions are not allocations.
	ReturnsPool bool `json:"returns_pool,omitempty"`
	// ReturnsWire: a return value derives from wire bytes (binary.*
	// reads or indexing a []byte parameter), so callers must treat it as
	// untrusted.
	ReturnsWire bool `json:"returns_wire,omitempty"`
	// Params holds one ParamFlow mask per declared parameter (receivers
	// excluded), in declaration order.
	Params []ParamFlow `json:"params,omitempty"`
	// Allocs are the direct allocation sites on the function's warm path:
	// make/new, slice/map composite literals, address-taken composites,
	// closures, string<->[]byte conversions, and known stdlib allocators —
	// excluding error-return branches, //lint:allow hotpath-alloc sites,
	// and sync.Pool warm-up refills.
	Allocs []SiteRef `json:"allocs,omitempty"`
	// NondetWire are sites where a nondeterministic value (time, rand,
	// GOMAXPROCS, map iteration order) is written to wire bytes, directly
	// or via a call (the site is then the call).
	NondetWire []SiteRef `json:"nondet_wire,omitempty"`
	// NondetRet are nondeterminism sources whose value flows into a
	// return value.
	NondetRet []SiteRef `json:"nondet_ret,omitempty"`
	// WireAllocSites are sites where a wire-derived local reaches an
	// untrusted-input sink without a prior bound check: an index or loop
	// bound, a call whose parameter reaches such a sink, or (in helpers
	// the v2 unbounded-wire-alloc analyzer does not cover) a direct
	// allocation size.
	WireAllocSites []SiteRef `json:"wire_alloc,omitempty"`
	// Atomic/Plain are the struct fields this function touches through
	// sync/atomic free functions vs. ordinary loads and stores.
	Atomic []FieldUse `json:"atomic,omitempty"`
	Plain  []FieldUse `json:"plain,omitempty"`
	// Calls are the module-internal static call edges.
	Calls []CallEdge `json:"calls,omitempty"`
	// Acquires are the module-wide-keyed mutex acquisitions; LockPairs the
	// nested ones (lock taken while another was held). Together with
	// CallEdge.Held they define the module lock-acquisition graph.
	Acquires  []LockUse  `json:"acquires,omitempty"`
	LockPairs []LockPair `json:"lock_pairs,omitempty"`
	// FieldWrites are the ordinary stores to module-internal struct fields,
	// tagged with goroutine/lock context for shared-write.
	FieldWrites []FieldWrite `json:"field_writes,omitempty"`
	// ChanOps are sends/closes/makes on module-wide-keyed channels.
	ChanOps []ChanOp `json:"chan_ops,omitempty"`
	// Spawns are the function's `go` statement sites.
	Spawns []SiteRef `json:"spawns,omitempty"`
	// UsedAllows are //lint:allow directive lines this function's extraction
	// consumed (Site.What names the analyzer). They persist in the summary
	// cache so the stale-suppression check stays correct on warm runs, when
	// extraction — and therefore live directive consumption — is skipped.
	UsedAllows []SiteRef `json:"used_allows,omitempty"`
}

// ModuleSummary is the summary table for every function of the loaded
// package set.
type ModuleSummary struct {
	Funcs map[string]*FuncSummary

	atomicOnce   bool
	atomicFields map[string][]SiteRef

	transMemo map[string]*AllocWitness

	lockOnce  bool
	lockEdges []lockEdge

	sharedOnce bool
	shared     *sharedWriteFacts

	chanOnce bool
	chans    *chanFacts
}

// AllocWitness is the proof attached to a transitive hot-path allocation:
// the chain of callees leading to the first allocation site found.
type AllocWitness struct {
	Site  SiteRef
	Chain []string
}

// AtomicFields aggregates, module-wide, every field accessed through
// sync/atomic free functions, mapped to the access sites.
func (m *ModuleSummary) AtomicFields() map[string][]SiteRef {
	if !m.atomicOnce {
		m.atomicFields = make(map[string][]SiteRef)
		keys := make([]string, 0, len(m.Funcs))
		for k := range m.Funcs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for _, fu := range m.Funcs[k].Atomic {
				m.atomicFields[fu.Field] = append(m.atomicFields[fu.Field], fu.Site)
			}
		}
		m.atomicOnce = true
	}
	return m.atomicFields
}

// TransitiveAlloc returns a witness that the named function allocates on
// its warm path, directly or through any chain of module-internal callees,
// or nil when it provably (up to the model) does not. Functions annotated
// //sketchlint:hotpath are skipped during the walk: their own violations
// are reported at their own sites, so a caller does not inherit them.
func (m *ModuleSummary) TransitiveAlloc(key string) *AllocWitness {
	if m.transMemo == nil {
		m.transMemo = make(map[string]*AllocWitness)
	}
	visiting := make(map[string]bool)
	var walk func(k string) *AllocWitness
	walk = func(k string) *AllocWitness {
		if w, ok := m.transMemo[k]; ok {
			return w
		}
		if visiting[k] {
			return nil // cycle: resolved by the first frame
		}
		s := m.Funcs[k]
		if s == nil {
			return nil
		}
		visiting[k] = true
		defer delete(visiting, k)
		var w *AllocWitness
		if len(s.Allocs) > 0 {
			w = &AllocWitness{Site: s.Allocs[0], Chain: []string{shortFuncName(k)}}
		} else {
			for _, e := range s.Calls {
				c := m.Funcs[e.Callee]
				if c == nil || c.Hotpath || e.Cold {
					continue
				}
				if cw := walk(e.Callee); cw != nil {
					chain := append([]string{shortFuncName(k)}, cw.Chain...)
					w = &AllocWitness{Site: cw.Site, Chain: chain}
					break
				}
			}
		}
		m.transMemo[k] = w
		return w
	}
	return walk(key)
}

// shortFuncName strips the package path qualifier from a summary key:
// "(*sketchml/internal/codec.SketchML).Encode" -> "(*SketchML).Encode",
// "sketchml/internal/keycoding.AppendDelta" -> "AppendDelta".
func shortFuncName(key string) string {
	if rest, ok := strings.CutPrefix(key, "("); ok {
		if i := strings.Index(rest, ")."); i >= 0 {
			recv, method := rest[:i], rest[i+2:]
			star := strings.HasPrefix(recv, "*")
			recv = strings.TrimPrefix(recv, "*")
			if j := strings.LastIndex(recv, "."); j >= 0 {
				recv = recv[j+1:]
			}
			if star {
				return "(*" + recv + ")." + method
			}
			return recv + "." + method
		}
	}
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	if i := strings.Index(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// funcKey returns the summary key for a declared function, or "".
func funcKey(info *types.Info, fn *ast.FuncDecl) string {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return ""
	}
	return obj.FullName()
}

// HasHotpathDirective reports whether the function's doc comment carries a
// //sketchlint:hotpath directive (grammar: the directive must be the whole
// comment, optionally followed by a space and free-text note).
func HasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "sketchlint:hotpath" || strings.HasPrefix(text, "sketchlint:hotpath ") {
			return true
		}
	}
	return false
}

// BuildSummaries computes the module summary table for pkgs. cached maps
// package import paths to previously computed summaries that are known to
// still be valid (the caller checks content hashes); those packages are
// not re-extracted. The second result lists the packages that were
// extracted fresh, so the caller can re-cache them.
func BuildSummaries(fset *token.FileSet, pkgs []*Package, cached map[string][]*FuncSummary) (*ModuleSummary, []string) {
	mod := &ModuleSummary{Funcs: make(map[string]*FuncSummary)}
	var freshPkgs []*Package
	var freshPaths []string
	for _, pkg := range pkgs {
		if sums, ok := cached[pkg.Path]; ok {
			for _, s := range sums {
				mod.Funcs[s.Key] = s
			}
			continue
		}
		freshPkgs = append(freshPkgs, pkg)
		freshPaths = append(freshPaths, pkg.Path)
	}

	// Collect the functions to extract, with their static call edges (for
	// SCC ordering only; precise edges are re-derived during extraction).
	type fnInfo struct {
		key   string
		pkg   *Package
		fn    *ast.FuncDecl
		allow map[string]map[int]map[string]bool
		calls []string
	}
	fns := make(map[string]*fnInfo)
	var order []string // deterministic iteration
	for _, pkg := range freshPkgs {
		allow := buildAllow(fset, pkg.Files)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				key := funcKey(pkg.Info, fn)
				if key == "" {
					continue
				}
				fi := &fnInfo{key: key, pkg: pkg, fn: fn, allow: allow}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calledFuncInfo(pkg.Info, call); callee != nil {
						fi.calls = append(fi.calls, callee.FullName())
					}
					return true
				})
				fns[key] = fi
				order = append(order, key)
			}
		}
	}
	sort.Strings(order)

	// Tarjan SCC over the fresh functions (edges into cached or external
	// functions are leaves with final summaries already in mod.Funcs).
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(k string)
	strongconnect = func(k string) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		for _, c := range fns[k].calls {
			if _, isFresh := fns[c]; !isFresh {
				continue
			}
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if low[c] < low[k] {
					low[k] = low[c]
				}
			} else if onStack[c] && index[c] < low[k] {
				low[k] = index[c]
			}
		}
		if low[k] == index[k] {
			var scc []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == k {
					break
				}
			}
			sccs = append(sccs, scc) // Tarjan emits in reverse topological order
		}
	}
	for _, k := range order {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}

	// Bottom-up extraction; bounded fixpoint inside each SCC so mutual
	// recursion terminates (flows are monotone bitsets and capped lists,
	// but the cap keeps the bound explicit regardless).
	for _, scc := range sccs {
		sort.Strings(scc)
		maxIter := 2*len(scc) + 2
		for iter := 0; iter < maxIter; iter++ {
			changed := false
			for _, k := range scc {
				fi := fns[k]
				s := extractSummary(fset, fi.pkg, fi.fn, fi.allow, mod)
				if !reflect.DeepEqual(mod.Funcs[k], s) {
					mod.Funcs[k] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return mod, freshPaths
}

// SummariesOf returns the package's summaries sorted by key, for caching.
func (m *ModuleSummary) SummariesOf(pkgPath string) []*FuncSummary {
	var out []*FuncSummary
	for _, s := range m.Funcs {
		if s.Pkg == pkgPath {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ---- extraction ----

// valueFlow is the abstract value of one local: which parameters it
// derives from, whether it derives from wire bytes or pooled memory, and
// which nondeterminism sources feed it.
type valueFlow struct {
	params    uint64
	untrusted bool // derived from wire bytes (binary reads, []byte param content)
	pool      bool // sync.Pool memory
	nondet    []SiteRef
}

func (v *valueFlow) empty() bool {
	return v == nil || (v.params == 0 && !v.untrusted && !v.pool && len(v.nondet) == 0)
}

func mergeFlow(a, b *valueFlow) *valueFlow {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &valueFlow{
		params:    a.params | b.params,
		untrusted: a.untrusted || b.untrusted,
		pool:      a.pool || b.pool,
	}
	out.nondet = appendSites(a.nondet, b.nondet...)
	return out
}

// appendSites appends with deduplication and the global cap.
func appendSites(dst []SiteRef, add ...SiteRef) []SiteRef {
	for _, s := range add {
		if len(dst) >= maxSummarySites {
			return dst
		}
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	return dst
}

// extractor carries the state of one function's extraction.
type extractor struct {
	fset  *token.FileSet
	pkg   *Package
	mod   *ModuleSummary
	allow map[string]map[int]map[string]bool
	fn    *ast.FuncDecl
	sum   *FuncSummary

	flows      map[types.Object]*valueFlow
	guards     map[types.Object][]token.Pos
	laundered  map[types.Object]bool // passed to a sort: map-order taint cleared
	litReturns map[*ast.ReturnStmt]bool
	coldSpans  []posRange
	skipAlloc  map[token.Pos]bool // pool warm-up refills: *poolPtr = make(...)
	paramIdx   map[types.Object]int

	lockScopes []lockScope
	goSpans    []posRange        // bodies of go'd function literals
	goCalls    map[ast.Node]bool // the CallExpr of a direct `go f(...)`
}

type posRange struct{ lo, hi token.Pos }

// site builds a SiteRef at pos.
func (x *extractor) site(pos token.Pos, what string) SiteRef {
	p := x.fset.Position(pos)
	return SiteRef{File: p.Filename, Line: p.Line, Col: p.Column, What: what}
}

// allowedAtPos reports whether a //lint:allow comment for analyzer name
// covers pos, recording the consumed directive line in UsedAllows so the
// stale-suppression check sees extraction-time consumption even on warm
// summary-cache runs.
func (x *extractor) allowedAtPos(pos token.Pos, name string) bool {
	p := x.fset.Position(pos)
	if !allowCovers(x.allow, p, name) {
		return false
	}
	lines := x.allow[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		if names := lines[line]; names != nil && names[name] {
			x.sum.UsedAllows = appendUsedAllows(x.sum.UsedAllows,
				SiteRef{File: p.Filename, Line: line, What: name})
		}
	}
	return true
}

// appendUsedAllows appends with deduplication under a generous cap (a
// dropped entry would surface as a false stale directive, so the cap is
// far above any plausible per-function directive count).
func appendUsedAllows(dst []SiteRef, s SiteRef) []SiteRef {
	for _, d := range dst {
		if d == s {
			return dst
		}
	}
	if len(dst) >= 4*maxTrackedParams {
		return dst
	}
	return append(dst, s)
}

// allowCovers is the shared line-or-line-above allow check.
func allowCovers(allow map[string]map[int]map[string]bool, pos token.Position, name string) bool {
	lines := allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names := lines[line]; names != nil && names[name] {
			return true
		}
	}
	return false
}

// extractSummary computes one function's summary against the current
// module table (callees first in topological order; SCC members iterate).
func extractSummary(fset *token.FileSet, pkg *Package, fn *ast.FuncDecl, allow map[string]map[int]map[string]bool, mod *ModuleSummary) *FuncSummary {
	x := &extractor{
		fset:       fset,
		pkg:        pkg,
		mod:        mod,
		allow:      allow,
		fn:         fn,
		flows:      make(map[types.Object]*valueFlow),
		guards:     make(map[types.Object][]token.Pos),
		laundered:  make(map[types.Object]bool),
		litReturns: make(map[*ast.ReturnStmt]bool),
		skipAlloc:  make(map[token.Pos]bool),
		paramIdx:   make(map[types.Object]int),
	}
	x.sum = &FuncSummary{
		Key:     funcKey(pkg.Info, fn),
		Pkg:     pkg.Path,
		Hotpath: HasHotpathDirective(fn),
	}

	// Seed parameter flows.
	if fn.Type.Params != nil {
		i := 0
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if i >= maxTrackedParams {
					break
				}
				if obj := pkg.Info.Defs[name]; obj != nil {
					x.paramIdx[obj] = i
					x.flows[obj] = &valueFlow{params: 1 << uint(i)}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++ // unnamed parameter still occupies a slot
			}
		}
		x.sum.Params = make([]ParamFlow, i)
	}

	x.collectStructure()
	x.collectConcurrency()
	x.propagateFlows()
	x.collectFacts()

	sort.Slice(x.sum.Calls, func(i, j int) bool {
		a, b := x.sum.Calls[i], x.sum.Calls[j]
		if a.Site != b.Site {
			return a.Site.Line < b.Site.Line || (a.Site.Line == b.Site.Line && a.Site.Col < b.Site.Col)
		}
		return a.Callee < b.Callee
	})
	return x.sum
}

// collectStructure gathers guards, for-condition positions, returns inside
// function literals, sort-laundered slices, and cold (error-return) spans.
func (x *extractor) collectStructure() {
	info := x.pkg.Info

	// Comparisons inside for-loop conditions are loop bounds, not guards.
	inForCond := make(map[ast.Node]bool)
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			ast.Inspect(f.Cond, func(c ast.Node) bool {
				inForCond[c] = true
				return true
			})
		}
		return true
	})

	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if inForCond[n] {
				return true
			}
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				for _, obj := range identVars(info, n) {
					x.guards[obj] = append(x.guards[obj], n.Pos())
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if r, ok := m.(*ast.ReturnStmt); ok {
					x.litReturns[r] = true
				}
				return true
			})
		case *ast.CallExpr:
			// sort.X(s) / slices.SortX(s): iteration-order taint on s is
			// laundered — the slice's final order no longer depends on the
			// order elements arrived in.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if qual, ok := sel.X.(*ast.Ident); ok {
					pkgPath := pkgNameOf(info, qual)
					if (pkgPath == "sort" || pkgPath == "slices") && len(n.Args) > 0 {
						if id := rootIdent(n.Args[0]); id != nil {
							if obj := info.Uses[id]; obj != nil {
								x.laundered[obj] = true
							}
						}
					}
				}
			}
		case *ast.IfStmt:
			if blockIsCold(info, x.fn, n.Body) {
				x.coldSpans = append(x.coldSpans, posRange{n.Body.Pos(), n.Body.End()})
			}
		}
		return true
	})
}

// blockIsCold reports whether an if-body is an error/panic branch: its
// last statement returns a non-nil final value from an error-returning
// function, or panics. Allocations there (typically fmt.Errorf) are not
// hot-path allocations.
func blockIsCold(info *types.Info, fn *ast.FuncDecl, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return funcReturnsOnlyError(info, fn) // bare return in err-named results
		}
		final := last.Results[len(last.Results)-1]
		if id, ok := final.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		if !funcLastResultIsError(info, fn) {
			return false
		}
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if qual, ok := sel.X.(*ast.Ident); ok &&
					strings.HasSuffix(pkgNameOf(info, qual), "internal/invariant") {
					return true
				}
			}
		}
	}
	return false
}

func funcLastResultIsError(info *types.Info, fn *ast.FuncDecl) bool {
	sig := funcSignature(info, fn)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1)
	return types.Identical(last.Type(), types.Universe.Lookup("error").Type())
}

func funcReturnsOnlyError(info *types.Info, fn *ast.FuncDecl) bool {
	sig := funcSignature(info, fn)
	return sig != nil && sig.Results().Len() == 1 && funcLastResultIsError(info, fn)
}

func funcSignature(info *types.Info, fn *ast.FuncDecl) *types.Signature {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// inCold reports whether pos falls inside an error-return branch.
func (x *extractor) inCold(pos token.Pos) bool {
	for _, r := range x.coldSpans {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// guardedAt reports whether obj passed an ordering comparison strictly
// before pos.
func (x *extractor) guardedAt(obj types.Object, pos token.Pos) bool {
	for _, g := range x.guards[obj] {
		if g < pos {
			return true
		}
	}
	return false
}

// collectConcurrency gathers the lock/goroutine/channel facts: mutex
// acquisitions and nested pairs, go-spawn sites and go'd-literal spans,
// ordinary field writes tagged with their concurrency context, and
// channel-field operations. It runs before collectFacts so call edges can
// carry held-lock and goroutine context.
func (x *extractor) collectConcurrency() {
	info := x.pkg.Info
	x.lockScopes = collectLockScopes(info, x.fn)
	x.goCalls = make(map[ast.Node]bool)

	// Spawn sites, go'd literal spans, and direct go-call marking.
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		x.sum.Spawns = appendSites(x.sum.Spawns, x.site(g.Pos(), "go statement"))
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			x.goSpans = append(x.goSpans, posRange{lit.Body.Pos(), lit.Body.End()})
		} else {
			x.goCalls[g.Call] = true
		}
		return true
	})

	// Mutex acquisitions and nested pairs.
	for si := range x.lockScopes {
		sc := &x.lockScopes[si]
		for _, e := range sc.events {
			if e.unlock || e.deferred {
				continue
			}
			if e.key != "" && len(x.sum.Acquires) < 4*maxSummarySites {
				what := "Lock"
				if e.read {
					what = "RLock"
				}
				x.sum.Acquires = append(x.sum.Acquires,
					LockUse{Field: e.key, Read: e.read, Site: x.site(e.pos, what)})
			}
			for _, h := range sc.heldAt(e.pos) {
				if h.key == "" || e.key == "" {
					continue
				}
				if h.key == e.key {
					if h.recv != e.recv {
						continue // two instances of one field: no static order
					}
					if h.read && e.read {
						continue // nested RLock of one mutex is legal
					}
				}
				if len(x.sum.LockPairs) >= 4*maxSummarySites {
					break
				}
				x.sum.LockPairs = append(x.sum.LockPairs, LockPair{
					Held: h.key, Acquired: e.key,
					HeldRead: h.read, AcqRead: e.read,
					Site: x.site(e.pos, shortLockName(e.key)),
				})
			}
		}
	}

	// Ordinary field writes and channel operations.
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				x.noteFieldWrite(lhs)
				if key := chanKeyOf(info, lhs); key != "" && len(n.Rhs) == len(n.Lhs) {
					if kind := makeChanKind(info, n.Rhs[i]); kind != "" {
						x.addChanOp(key, kind, n.Rhs[i].Pos())
					}
				}
			}
		case *ast.IncDecStmt:
			x.noteFieldWrite(n.X)
		case *ast.SendStmt:
			if key := chanKeyOf(info, n.Chan); key != "" {
				x.addChanOp(key, "send", n.Arrow)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if key := chanKeyOf(info, n.Args[0]); key != "" {
						x.addChanOp(key, "close", n.Pos())
					}
				}
			}
		case *ast.CompositeLit:
			x.noteCompositeChans(n)
		}
		return true
	})
}

// noteFieldWrite records an ordinary store to a module-internal struct
// field, tagged with its goroutine and lock context.
func (x *extractor) noteFieldWrite(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := fieldKeyAnyOf(x.pkg.Info, sel)
	if key == "" || len(x.sum.FieldWrites) >= 4*maxSummarySites {
		return
	}
	pos := sel.Pos()
	x.sum.FieldWrites = append(x.sum.FieldWrites, FieldWrite{
		Field:  key,
		Site:   x.site(pos, "write"),
		Go:     x.inGoSpan(pos),
		Locked: len(heldLocksAt(x.lockScopes, pos)) > 0,
	})
}

// inGoSpan reports whether pos sits inside a go'd function literal.
func (x *extractor) inGoSpan(pos token.Pos) bool {
	for _, r := range x.goSpans {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// addChanOp records one channel operation under the shared cap.
func (x *extractor) addChanOp(key, kind string, pos token.Pos) {
	if len(x.sum.ChanOps) >= 4*maxSummarySites {
		return
	}
	x.sum.ChanOps = append(x.sum.ChanOps, ChanOp{Field: key, Kind: kind, Site: x.site(pos, kind)})
}

// makeChanKind classifies e when it is make(chan T[, n]): a constant-zero
// or absent capacity is "make-unbuffered"; anything else — including a
// non-constant capacity, which cannot be proven unbuffered — is
// "make-buffered".
func makeChanKind(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return ""
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return ""
	}
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return ""
	}
	if _, ok := tv.Type.Underlying().(*types.Chan); !ok {
		return ""
	}
	if len(call.Args) < 2 {
		return "make-unbuffered"
	}
	if ctv, ok := info.Types[call.Args[1]]; ok && ctv.Value != nil {
		if v, exact := constant.Int64Val(ctv.Value); exact && v == 0 {
			return "make-unbuffered"
		}
	}
	return "make-buffered"
}

// noteCompositeChans records channel makes inside a struct composite
// literal (the constructor idiom: &P{events: make(chan int)}).
func (x *extractor) noteCompositeChans(lit *ast.CompositeLit) {
	info := x.pkg.Info
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !internalLibrary(named.Obj().Pkg().Path()) {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		keyID, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		kind := makeChanKind(info, kv.Value)
		if kind == "" {
			continue
		}
		x.addChanOp(named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+keyID.Name,
			kind, kv.Value.Pos())
	}
}

// exprFlow resolves the abstract value of an expression as used at its own
// position: guards that fired earlier clear the untrusted/param bits, and
// sort calls clear map-order entries.
func (x *extractor) exprFlow(e ast.Expr) *valueFlow {
	info := x.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		f := x.flows[obj]
		if f == nil {
			return nil
		}
		out := &valueFlow{params: f.params, untrusted: f.untrusted, pool: f.pool, nondet: f.nondet}
		if x.guardedAt(obj, e.Pos()) {
			out.params = 0
			out.untrusted = false
		}
		if x.laundered[obj] {
			var kept []SiteRef
			for _, s := range out.nondet {
				if !strings.HasPrefix(s.What, "map iteration") {
					kept = append(kept, s)
				}
			}
			out.nondet = kept
		}
		if out.empty() {
			return nil
		}
		return out
	case *ast.ParenExpr:
		return x.exprFlow(e.X)
	case *ast.StarExpr:
		return x.exprFlow(e.X)
	case *ast.UnaryExpr:
		return x.exprFlow(e.X)
	case *ast.BinaryExpr:
		return mergeFlow(x.exprFlow(e.X), x.exprFlow(e.Y))
	case *ast.IndexExpr:
		f := x.exprFlow(e.X)
		if isByteSlice(info, e.X) {
			f = mergeFlow(f, &valueFlow{untrusted: true})
		}
		return f
	case *ast.SliceExpr:
		return x.exprFlow(e.X)
	case *ast.TypeAssertExpr:
		return x.exprFlow(e.X)
	case *ast.CompositeLit:
		var f *valueFlow
		for _, el := range e.Elts {
			f = mergeFlow(f, x.exprFlow(el))
		}
		return f
	case *ast.KeyValueExpr:
		return x.exprFlow(e.Value)
	case *ast.CallExpr:
		return x.callFlow(e)
	}
	return nil
}

// callFlow models the result of a call.
func (x *extractor) callFlow(call *ast.CallExpr) *valueFlow {
	info := x.pkg.Info

	// Builtins and conversions.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "make", "new":
				return nil // results are bounded / fresh memory
			case "append":
				var f *valueFlow
				for _, a := range call.Args {
					f = mergeFlow(f, x.exprFlow(a))
				}
				return f
			default:
				return nil
			}
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return x.exprFlow(call.Args[0]) // conversion preserves provenance
	}

	// Wire reads: binary.LittleEndian.Uint32(...) and friends.
	if isBinaryRead(info, call) {
		return &valueFlow{untrusted: true}
	}
	// Nondeterminism sources.
	if what := nondetSource(info, call); what != "" {
		return &valueFlow{nondet: []SiteRef{x.site(call.Pos(), what)}}
	}
	// sync.Pool.Get.
	if poolMethodNameInfo(info, call) == "Get" {
		return &valueFlow{pool: true}
	}

	// Module-internal callee with a summary: compose precisely.
	if callee := calledFuncInfo(info, call); callee != nil {
		if s := x.mod.Funcs[callee.FullName()]; s != nil {
			return x.summaryCallFlow(call, callee, s)
		}
	}

	// Unknown callee (stdlib, interface method, closure): assume the
	// result derives from the operands, receiver included, so taint and
	// nondeterminism survive pure-function plumbing like
	// time.Now().UnixNano() or math.Float64frombits(bits). Pool
	// membership does not pass through: stdlib functions do not return
	// their argument's backing store.
	var f *valueFlow
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		f = mergeFlow(f, x.exprFlow(sel.X))
	}
	for _, a := range call.Args {
		f = mergeFlow(f, x.exprFlow(a))
	}
	if f != nil {
		f = &valueFlow{params: f.params, untrusted: f.untrusted, nondet: f.nondet}
		if f.empty() {
			return nil
		}
	}
	return f
}

// summaryCallFlow models a call through the callee's summary.
func (x *extractor) summaryCallFlow(call *ast.CallExpr, callee *types.Func, s *FuncSummary) *valueFlow {
	var f *valueFlow
	if s.ReturnsPool {
		f = mergeFlow(f, &valueFlow{pool: true})
	}
	if s.ReturnsWire {
		f = mergeFlow(f, &valueFlow{untrusted: true})
	}
	// A //lint:allow wire-determinism on the call vouches for its result
	// (a generator with a fixed seed, say) and stops the taint there, so
	// the sinks downstream stay checked for every other source.
	if len(s.NondetRet) > 0 && !x.allowedAtPos(call.Pos(), "wire-determinism") {
		f = mergeFlow(f, &valueFlow{nondet: s.NondetRet})
	}
	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		j := paramIndexFor(sig, i)
		if j < 0 || j >= len(s.Params) {
			continue
		}
		if s.Params[j]&FlowReturn != 0 {
			f = mergeFlow(f, x.exprFlow(arg))
		}
	}
	return f
}

// paramIndexFor maps argument position i to the callee's parameter index,
// folding variadic tails onto the last parameter. Returns -1 when the
// signature cannot absorb the argument.
func paramIndexFor(sig *types.Signature, i int) int {
	if sig == nil {
		return -1
	}
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if i < n {
		return i
	}
	if sig.Variadic() {
		return n - 1
	}
	return -1
}

// propagateFlows runs the forward assignment pass in source order.
func (x *extractor) propagateFlows() {
	info := x.pkg.Info
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				f := x.exprFlow(rhs)
				// Pool warm-up refill: *poolPtr = make(...) — the fresh
				// memory becomes pool-owned scratch; record the make sites
				// so the allocation collector skips them.
				if star, ok := lhs.(*ast.StarExpr); ok {
					if id := rootIdent(star.X); id != nil {
						if pf := x.flows[info.Uses[id]]; pf != nil && pf.pool {
							ast.Inspect(rhs, func(m ast.Node) bool {
								if c, ok := m.(*ast.CallExpr); ok {
									if cid, ok := c.Fun.(*ast.Ident); ok && cid.Name == "make" {
										x.skipAlloc[c.Pos()] = true
									}
								}
								return true
							})
						}
					}
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					if f == nil {
						delete(x.flows, obj)
					} else {
						x.flows[obj] = f
					}
				} else if f != nil { // compound (+=, |=, ...): merge
					x.flows[obj] = mergeFlow(x.flows[obj], f)
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if f := x.exprFlow(vs.Values[i]); f != nil {
							if obj := info.Defs[name]; obj != nil {
								x.flows[obj] = f
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			f := x.exprFlow(n.X)
			isMap := false
			isInt := false
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch u := tv.Type.Underlying().(type) {
				case *types.Map:
					isMap = true
					f = mergeFlow(f, &valueFlow{nondet: []SiteRef{x.site(n.Pos(), "map iteration order")}})
				case *types.Basic:
					isInt = u.Info()&types.IsInteger != 0
				}
			}
			if f == nil {
				return true
			}
			// The key inherits provenance only when it is data (map keys)
			// or the ranged value itself (range over an integer). A slice
			// or array index is 0..len-1 — bounded by construction, never
			// tainted by the elements.
			targets := []ast.Expr{n.Value}
			if isMap || isInt {
				targets = append(targets, n.Key)
			}
			for _, e := range targets {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						x.flows[obj] = f
					} else if obj := info.Uses[id]; obj != nil {
						x.flows[obj] = mergeFlow(x.flows[obj], f)
					}
				}
			}
		}
		return true
	})
}

// collectFacts is the sink pass: allocations, untrusted-input sinks, wire
// writes, call edges, returns, and atomic/plain field accesses.
func (x *extractor) collectFacts() {
	info := x.pkg.Info
	atomicOperands := x.collectAtomicFields()
	x.collectPlainFields(atomicOperands)

	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			x.factsForCall(n)
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					x.noteAlloc(n.Pos(), "composite literal")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					x.noteAlloc(n.Pos(), "&composite literal")
				}
			}
		case *ast.FuncLit:
			x.noteAlloc(n.Pos(), "closure")
		case *ast.IndexExpr:
			// Untrusted index into a slice or array.
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					x.noteUntrustedSink(n.Index, n.Index.Pos(), "index", "used as an index with no prior bound check")
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				x.noteUntrustedSink(n.Cond, n.Cond.Pos(), "loop bound", "bounds a loop with no prior check")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					x.noteUntrustedSink(n.X, n.X.Pos(), "loop bound", "bounds an integer range with no prior check")
				}
			}
		case *ast.AssignStmt:
			// Wire write: store into an element of a []byte.
			for i, lhs := range n.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok || !isByteSlice(info, idx.X) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					x.noteWireWrite(rhs, n.Pos())
				}
			}
		case *ast.ReturnStmt:
			if x.litReturns[n] {
				return true
			}
			for _, res := range n.Results {
				f := x.exprFlow(res)
				if f == nil {
					continue
				}
				x.markParams(f.params, FlowReturn)
				if f.untrusted {
					x.sum.ReturnsWire = true
				}
				if f.pool {
					x.sum.ReturnsPool = true
				}
				if len(f.nondet) > 0 {
					x.sum.NondetRet = appendSites(x.sum.NondetRet, f.nondet...)
				}
			}
		}
		return true
	})
}

// markParams sets flag on every parameter in the bit set.
func (x *extractor) markParams(bits uint64, flag ParamFlow) {
	for i := range x.sum.Params {
		if bits&(1<<uint(i)) != 0 {
			x.sum.Params[i] |= flag
		}
	}
}

// noteAlloc records a direct allocation site unless it is cold, allowed,
// or a pool refill.
func (x *extractor) noteAlloc(pos token.Pos, what string) {
	if x.inCold(pos) || x.skipAlloc[pos] || x.allowedAtPos(pos, "hotpath-alloc") {
		return
	}
	x.sum.Allocs = appendSites(x.sum.Allocs, x.site(pos, what))
}

// noteUntrustedSink inspects an expression used as a sink (index, loop
// bound, alloc size): parameter flows set ParamFlow bits; wire-derived
// local flows record a WireAllocSite.
func (x *extractor) noteUntrustedSink(e ast.Expr, pos token.Pos, kind, msg string) {
	if x.allowedAtPos(pos, "wire-taint") {
		return
	}
	var flag ParamFlow
	switch kind {
	case "alloc size":
		flag = FlowAllocSize
	case "index":
		flag = FlowIndex
	case "loop bound":
		flag = FlowLoopBound
	}
	f := x.exprFlow(e)
	if f == nil {
		return
	}
	x.markParams(f.params, flag)
	if f.untrusted {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(pos, fmt.Sprintf("wire-derived %s %s", x.untrustedVarName(e), msg)))
	}
}

// untrustedVarName names the first variable in e whose own flow is
// wire-derived — the one the message should blame — falling back to the
// first variable mentioned.
func (x *extractor) untrustedVarName(e ast.Expr) string {
	vars := identVars(x.pkg.Info, e)
	for _, v := range vars {
		if f := x.flows[v]; f != nil && f.untrusted && !x.guardedAt(v, e.Pos()) {
			return v.Name()
		}
	}
	if len(vars) > 0 {
		return vars[0].Name()
	}
	return "value"
}

// noteWireWrite records nondeterministic values reaching a wire write and
// parameters written to the wire.
func (x *extractor) noteWireWrite(e ast.Expr, pos token.Pos) {
	f := x.exprFlow(e)
	if f == nil {
		return
	}
	x.markParams(f.params, FlowWireOut)
	if len(f.nondet) > 0 && !x.allowedAtPos(pos, "wire-determinism") {
		for _, src := range f.nondet {
			x.sum.NondetWire = appendSites(x.sum.NondetWire,
				x.site(pos, fmt.Sprintf("%s value (from %s:%d) written to wire bytes", src.What, shortFile(src.File), src.Line)))
		}
	}
}

// factsForCall handles allocation builtins, alloc-size sinks, wire-write
// sinks, call edges, and summary composition at one call site.
func (x *extractor) factsForCall(call *ast.CallExpr) {
	info := x.pkg.Info

	// Builtin allocators and their size sinks.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				x.noteAlloc(call.Pos(), "make")
				for _, arg := range call.Args[1:] {
					x.noteSizeSink(arg)
				}
			case "new":
				x.noteAlloc(call.Pos(), "new")
			case "append":
				if len(call.Args) > 1 && isByteSlice(info, call.Args[0]) {
					for _, arg := range call.Args[1:] {
						x.noteWireWrite(arg, arg.Pos())
					}
				}
			}
			return
		}
	}

	// Conversions that copy: []byte(s), string(b).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.Types[call.Args[0]].Type
		if src != nil {
			if isStrByteConv(dst, src.Underlying()) {
				x.noteAlloc(call.Pos(), "string/[]byte conversion")
			}
		}
		return
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// Known stdlib allocators.
		if qual, ok := sel.X.(*ast.Ident); ok {
			switch pkgNameOf(info, qual) + "." + sel.Sel.Name {
			case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "fmt.Errorf",
				"errors.New", "strings.Repeat", "strings.Join", "strconv.Itoa",
				"strconv.FormatInt", "strconv.FormatFloat", "strconv.Quote":
				x.noteAlloc(call.Pos(), pkgBase(pkgNameOf(info, qual))+"."+sel.Sel.Name)
			}
			// slices.Grow(s, n).
			if pkgNameOf(info, qual) == "slices" && sel.Sel.Name == "Grow" && len(call.Args) == 2 {
				x.noteAlloc(call.Pos(), "slices.Grow")
				x.noteSizeSink(call.Args[1])
			}
		}
		// (*bytes.Buffer).Grow(n) and friends.
		if s, ok := info.Selections[sel]; ok && sel.Sel.Name == "Grow" && len(call.Args) == 1 {
			x.noteAlloc(call.Pos(), typeName(s.Recv())+".Grow")
			x.noteSizeSink(call.Args[0])
		}
		// binary.LittleEndian.PutUint32(b, v) / AppendUint64 / binary.Write.
		if isBinaryPut(info, call) && len(call.Args) >= 2 {
			x.noteWireWrite(call.Args[len(call.Args)-1], call.Pos())
		}
		// Conn.Send(b) / w.Write(b): single-[]byte wire sinks.
		if (sel.Sel.Name == "Send" || sel.Sel.Name == "Write") && len(call.Args) == 1 && isByteSlice(info, call.Args[0]) {
			x.noteWireWrite(call.Args[0], call.Pos())
		}
	}

	// Module-internal callee: record the edge and compose summaries.
	callee := calledFuncInfo(info, call)
	if callee == nil {
		return
	}
	key := callee.FullName()
	s := x.mod.Funcs[key]
	if s == nil {
		return // external or bodyless: not followed
	}
	edge := CallEdge{
		Callee: key,
		Site:   x.site(call.Pos(), shortFuncName(key)),
		Cold:   x.inCold(call.Pos()),
		Go:     x.goCalls[call] || x.inGoSpan(call.Pos()),
	}
	// A directly spawned call (`go f()`) runs on a fresh goroutine, which
	// holds none of the spawner's locks — its edge carries no Held set.
	if !x.goCalls[call] {
		for _, h := range heldLocksAt(x.lockScopes, call.Pos()) {
			if h.key == "" {
				continue
			}
			dup := false
			for _, k := range edge.Held {
				if k == h.key {
					dup = true
					break
				}
			}
			if !dup {
				edge.Held = append(edge.Held, h.key)
			}
		}
		sort.Strings(edge.Held)
	}
	x.sum.Calls = append(x.sum.Calls, edge)

	// Inherit wire-write and untrusted-sink behavior through the call —
	// except when the callee is itself a reporting entry point (an
	// encode/decode-named function of a wire package): its findings are
	// reported at its own sites, and re-reporting them at every caller up
	// the chain would bury one root cause under N duplicates.
	if len(s.NondetWire) > 0 && !x.allowedAtPos(call.Pos(), "wire-determinism") &&
		!(isAllocPackage(s.Pkg) && isEncodeFunc(callee.Name())) {
		x.sum.NondetWire = appendSites(x.sum.NondetWire,
			x.site(call.Pos(), fmt.Sprintf("call to %s, which writes %s", shortFuncName(key), s.NondetWire[0].What)))
	}
	if len(s.WireAllocSites) > 0 && !x.allowedAtPos(call.Pos(), "wire-taint") &&
		!(isAllocPackage(s.Pkg) && isDecodeFunc(callee.Name())) {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(call.Pos(), fmt.Sprintf("call to %s: %s", shortFuncName(key), s.WireAllocSites[0].What)))
	}

	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		j := paramIndexFor(sig, i)
		if j < 0 || j >= len(s.Params) {
			continue
		}
		pf := s.Params[j]
		f := x.exprFlow(arg)
		if f == nil {
			continue
		}
		// Untrusted sinks through the callee's parameters.
		if pf&flowSinkMask != 0 {
			x.markParams(f.params, pf&flowSinkMask)
			if f.untrusted && !x.allowedAtPos(call.Pos(), "wire-taint") {
				x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
					x.site(arg.Pos(), fmt.Sprintf("wire-derived %s passed to %s, where it reaches %s with no bound check",
						x.untrustedVarName(arg), shortFuncName(key), describeSinks(pf))))
			}
		}
		// Wire-write sinks through the callee's parameters.
		if pf&FlowWireOut != 0 {
			x.markParams(f.params, FlowWireOut)
			if len(f.nondet) > 0 && !x.allowedAtPos(call.Pos(), "wire-determinism") {
				x.sum.NondetWire = appendSites(x.sum.NondetWire,
					x.site(arg.Pos(), fmt.Sprintf("%s value passed to %s, which writes it to wire bytes",
						f.nondet[0].What, shortFuncName(key))))
			}
		}
	}
}

// noteSizeSink handles one allocation-size operand.
func (x *extractor) noteSizeSink(arg ast.Expr) {
	// Parameter flows always matter; wire-derived locals are recorded only
	// when the v2 unbounded-wire-alloc analyzer does not already own the
	// site (it covers decode-named functions in wire packages).
	if x.allowedAtPos(arg.Pos(), "wire-taint") {
		return
	}
	f := x.exprFlow(arg)
	if f == nil {
		return
	}
	x.markParams(f.params, FlowAllocSize)
	if f.untrusted && !isDecodeFunc(x.fn.Name.Name) {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(arg.Pos(), fmt.Sprintf("wire-derived %s used as an allocation size with no prior bound check",
				x.untrustedVarName(arg))))
	}
}

func describeSinks(pf ParamFlow) string {
	var parts []string
	if pf&FlowAllocSize != 0 {
		parts = append(parts, "an allocation size")
	}
	if pf&FlowIndex != 0 {
		parts = append(parts, "an index")
	}
	if pf&FlowLoopBound != 0 {
		parts = append(parts, "a loop bound")
	}
	return strings.Join(parts, " and ")
}

// collectAtomicFields finds sync/atomic free-function calls on struct
// fields and returns the selector nodes used as their operands so the
// plain-access pass can skip them.
func (x *extractor) collectAtomicFields() map[ast.Node]bool {
	info := x.pkg.Info
	operands := make(map[ast.Node]bool)
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		qual, ok := sel.X.(*ast.Ident)
		if !ok || pkgNameOf(info, qual) != "sync/atomic" || len(call.Args) == 0 {
			return true
		}
		un, ok := call.Args[0].(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return true
		}
		fieldSel, ok := un.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if key := fieldKeyOf(info, fieldSel); key != "" {
			operands[fieldSel] = true
			x.sum.Atomic = append(x.sum.Atomic, FieldUse{Field: key, Site: x.site(fieldSel.Pos(), sel.Sel.Name)})
			if len(x.sum.Atomic) > maxSummarySites {
				x.sum.Atomic = x.sum.Atomic[:maxSummarySites]
			}
		}
		return true
	})
	return operands
}

// collectPlainFields records ordinary accesses to atomically-eligible
// struct fields. Address-taken fields are skipped (the address usually
// flows to an atomic call through a helper, and flagging &f would flag the
// atomic idiom itself).
func (x *extractor) collectPlainFields(atomicOperands map[ast.Node]bool) {
	info := x.pkg.Info
	addrTaken := make(map[ast.Node]bool)
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.AND {
			if sel, ok := un.X.(*ast.SelectorExpr); ok {
				addrTaken[sel] = true
			}
		}
		return true
	})
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || atomicOperands[sel] || addrTaken[sel] {
			return true
		}
		key := fieldKeyOf(info, sel)
		if key == "" {
			return true
		}
		x.sum.Plain = append(x.sum.Plain, FieldUse{Field: key, Site: x.site(sel.Pos(), "plain access")})
		if len(x.sum.Plain) > 4*maxSummarySites {
			x.sum.Plain = x.sum.Plain[:4*maxSummarySites]
			return false
		}
		return true
	})
}

// fieldKeyOf keys a field selector as "pkgpath.Type.Field" when it names a
// module-internal struct field whose type sync/atomic free functions can
// operate on (int32/int64/uint32/uint64/uintptr/pointer). Fields of
// sync/atomic box types (atomic.Int64, ...) are excluded: their methods
// are the safe pattern.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || !internalLibrary(field.Pkg().Path()) {
		return ""
	}
	switch ft := field.Type().Underlying().(type) {
	case *types.Basic:
		switch ft.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr:
		default:
			return ""
		}
	case *types.Pointer:
	default:
		return ""
	}
	if named, ok := field.Type().(*types.Named); ok {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync/atomic" {
			return ""
		}
	}
	return fieldKeyFor(s, field)
}

// fieldKeyAnyOf is fieldKeyOf without the atomic-eligibility type filter:
// it keys any module-internal struct field. The concurrency facts (mutex
// fields, field writes, channel fields) use it.
func fieldKeyAnyOf(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || !internalLibrary(field.Pkg().Path()) {
		return ""
	}
	return fieldKeyFor(s, field)
}

// fieldKeyFor renders the "pkgpath.Type.Field" key for a selection. Recv
// names the struct (embedded fields key under the outermost receiver type,
// which is how callers see them).
func fieldKeyFor(s *types.Selection, field *types.Var) string {
	recv := s.Recv()
	for {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			continue
		}
		break
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
}

// ---- shared expression helpers ----

// identVars collects the variable objects an expression mentions, skipping
// len/cap interiors (bounded by definition).
func identVars(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return false
				}
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// pkgNameOf resolves an identifier naming an import to its package path.
func pkgNameOf(info *types.Info, ident *ast.Ident) string {
	if obj, ok := info.Uses[ident].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func shortFile(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isByteSlice reports whether e's type is []byte.
func isByteSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isStrByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// isBinaryRead matches binary.LittleEndian.UintXX(...) / BigEndian reads.
func isBinaryRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Uint") {
		return false
	}
	return isBinaryOrderExpr(info, sel.X)
}

// isBinaryPut matches binary.LittleEndian.PutUintXX / AppendUintXX and
// binary.Write.
func isBinaryPut(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if qual, ok := sel.X.(*ast.Ident); ok &&
		pkgNameOf(info, qual) == "encoding/binary" && sel.Sel.Name == "Write" {
		return true
	}
	if !strings.HasPrefix(sel.Sel.Name, "PutUint") && !strings.HasPrefix(sel.Sel.Name, "AppendUint") {
		return false
	}
	return isBinaryOrderExpr(info, sel.X)
}

// isBinaryOrderExpr matches binary.LittleEndian / binary.BigEndian /
// values of type binary.ByteOrder.
func isBinaryOrderExpr(info *types.Info, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if qual, ok := sel.X.(*ast.Ident); ok && pkgNameOf(info, qual) == "encoding/binary" {
			return true
		}
	}
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if named, ok := tv.Type.(*types.Named); ok {
			if p := named.Obj().Pkg(); p != nil && p.Path() == "encoding/binary" {
				return true
			}
		}
	}
	return false
}

// nondetSource classifies calls whose results differ run to run: the
// compile-time complement of the golden-vector perturbation tests.
func nondetSource(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	switch pkgNameOf(info, qual) {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return "time." + sel.Sel.Name
		}
	case "math/rand", "math/rand/v2":
		return "math/rand." + sel.Sel.Name
	case "runtime":
		switch sel.Sel.Name {
		case "GOMAXPROCS", "NumCPU", "NumGoroutine":
			return "runtime." + sel.Sel.Name
		}
	}
	return ""
}

// calledFuncInfo resolves a call to the *types.Func it statically invokes,
// or nil (closures, interface methods, builtins).
func calledFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		// An interface method has no body to summarize; report only
		// concrete functions and methods.
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return nil
			}
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// poolMethodNameInfo is poolMethodName without the Pass dependency.
func poolMethodNameInfo(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || typeName(s.Recv()) != "sync.Pool" {
		return ""
	}
	return name
}
