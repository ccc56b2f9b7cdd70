package routing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"turnmodel/internal/topology"
)

// Route-table compilation. A routing relation over a fixed topology is
// a pure function of (current node, destination, arrival port), so for
// the simulator's steady state it can be evaluated once per (node,
// destination) pair and stored in a flat candidate arena — the same
// "routing logic as a lookup table" move hardware routers make. The
// simulator then serves every header's candidate list as a slice into
// the arena instead of re-running the turn-model calculus per packet
// per router.
//
// Arrival ports are folded away: every relation in this package except
// TurnGraphRouting produces the same candidates for every non-injected
// arrival port (most ignore the port entirely; WrapFirstHop branches
// only on Injected). Such relations declare it via the ArrivalInvariant
// marker, and the table keeps just two candidate lists per (node,
// destination) pair — one for injected headers, one for arrived ones.
// Relations without the marker are verified exhaustively at compile
// time; a relation that genuinely depends on the arrival port fails
// compilation and the simulator falls back to direct evaluation.

// MaxTableNodes bounds the topologies worth compiling: a table is
// quadratic in the node count (two spans per node pair), so beyond this
// size compilation is refused and callers fall back to direct
// evaluation.
const MaxTableNodes = 1024

// ArrivalInvariant marks a VCAlgorithm whose CandidatesVC result is
// independent of the arrival port: for fixed (cur, dst), every VCInPort
// with Injected == false yields the same candidate list. (The injected
// case may still differ, as in WrapFirstHop.) Declaring it lets Compile
// evaluate one representative arrival port per node pair instead of
// verifying all of them.
type ArrivalInvariant interface {
	ArrivalInvariant() bool
}

func isArrivalInvariant(alg VCAlgorithm) bool {
	a, ok := alg.(ArrivalInvariant)
	return ok && a.ArrivalInvariant()
}

// Candidate is one precompiled, pre-filtered routing candidate: the
// virtual direction packed into two bytes, its profitability, and its
// resolved output index in the canonical simulator port layout (see
// OutIndex). Only the per-cycle output-busy check remains for the
// simulator to do.
type Candidate struct {
	// Out is OutIndex(cur, Dir, VC) for the node the candidate was
	// compiled at.
	Out int32
	// Dir is topology.Direction.Index() of the output direction.
	Dir uint8
	// VC is the virtual channel.
	VC uint8
	// Prof records whether the hop reduces the distance to the
	// destination (a "profitable" move in the paper's terms).
	Prof bool
}

// Direction unpacks the candidate's output direction.
func (c Candidate) Direction() topology.Direction {
	return topology.DirectionFromIndex(int(c.Dir))
}

// OutIndex returns the canonical dense output index shared between
// compiled tables and the simulator: routers are laid out consecutively
// with 2n*vcs+1 virtual ports each (the last being the
// injection/ejection port), and direction d's virtual channel vc
// occupies port d.Index()*vcs + vc within its router.
func OutIndex(v topology.NodeID, d topology.Direction, vc, ndim, vcs int) int32 {
	vport := 2*ndim*vcs + 1
	return int32(int(v)*vport + d.Index()*vcs + vc)
}

// span is a half-open range into Table.cands.
type span struct{ start, end int32 }

// Table is a compiled routing relation: per (node, destination) pair,
// the filtered candidate lists for injected and arrived headers, stored
// in one flat arena. A table is immutable after compilation and safe
// for concurrent readers; it is valid only at the fault epoch it was
// compiled at (see Epoch and TableFor).
type Table struct {
	epoch int
	n     int
	// spans holds two entries per (cur, dst) pair at (cur*n+dst)*2:
	// the injected list, then the arrived list. When the two lists are
	// equal (every relation but WrapFirstHop) the spans alias.
	spans []span
	cands []Candidate
}

// Epoch returns the topology fault epoch the table was compiled at.
// A table is stale once Topology.FaultEpoch moves past it.
func (t *Table) Epoch() int { return t.epoch }

// Lookup returns the compiled candidates for a header at cur destined
// for dst, injected or arrived. The returned slice aliases the table's
// arena with its capacity clipped to its length; callers must treat it
// as read-only.
func (t *Table) Lookup(cur, dst topology.NodeID, injected bool) []Candidate {
	i := (int(cur)*t.n + int(dst)) * 2
	if !injected {
		i++
	}
	s := t.spans[i]
	return t.cands[s.start:s.end:s.end]
}

// MemoryBytes estimates the table's footprint, for capacity planning
// and the DESIGN.md numbers.
func (t *Table) MemoryBytes() int {
	return len(t.spans)*8 + len(t.cands)*8
}

func candsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compileCount tallies every compilation attempt (successes and the
// sticky failures, which cost nearly as much: arrival-dependence is
// detected mid-verification). CompileCount exposes it so sweep-level
// tests and benchmarks can assert cross-leaf sharing: a sweep whose
// leaves share relations compiles once per distinct (topology,
// algorithm, fault epoch), not once per leaf.
var compileCount atomic.Int64

// CompileCount returns the number of route-table compilations this
// process has attempted.
func CompileCount() int64 { return compileCount.Load() }

// Compile builds the routing table for alg at its topology's current
// fault epoch. It returns an error — and the caller falls back to
// direct evaluation — when the topology is too large or the relation's
// candidates depend on the arrival port (verified exhaustively unless
// the relation declares ArrivalInvariant).
//
// Rows (one current node each) are compiled in contiguous ranges on
// up to GOMAXPROCS goroutines, so alg is evaluated concurrently, as the
// Algorithm contract allows. Each range fills its own candidate arena,
// and the arenas are concatenated in row order; identical candidate
// lists share one span within a row, never across rows. The table is
// therefore the same, span for span, at every GOMAXPROCS, and an
// arrival-dependent relation reports the same first (node, dst) pair a
// serial row-major build would. A panic raised by alg in a worker is
// re-raised on the calling goroutine.
func Compile(alg VCAlgorithm) (*Table, error) {
	compileCount.Add(1)
	t := alg.Topology()
	n := t.Nodes()
	if n > MaxTableNodes {
		return nil, fmt.Errorf("routing: %s: %d nodes exceed the %d-node table limit", alg.Name(), n, MaxTableNodes)
	}
	vcs := alg.NumVCs()
	if vcs < 1 || vcs > 256 {
		return nil, fmt.Errorf("routing: %s: %d virtual channels not compilable", alg.Name(), vcs)
	}
	if 2*t.NumDims() > 256 {
		return nil, fmt.Errorf("routing: %s: direction index does not fit the packed candidate", alg.Name())
	}
	tab := &Table{
		epoch: t.FaultEpoch(),
		n:     n,
		spans: make([]span, n*n*2),
	}
	nw := min(runtime.GOMAXPROCS(0), n)
	ws := make([]*rowCompiler, nw)
	for i := range ws {
		ws[i] = newRowCompiler(alg, tab.spans, i*n/nw, (i+1)*n/nw)
	}
	// failRow is the lowest row known to fail verification; a worker
	// stops before any later row, as a serial build would never get
	// there.
	var failRow atomic.Int64
	failRow.Store(int64(n))
	if nw == 1 {
		ws[0].run(&failRow)
	} else {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { w.panicked = recover() }()
				w.run(&failRow)
			}()
		}
		wg.Wait()
	}
	// Each worker stopped at its own first failure; the lowest worker's
	// is the one a serial build meets first.
	total := 0
	for _, w := range ws {
		if w.panicked != nil {
			panic(w.panicked)
		}
		if w.err != nil {
			return nil, w.err
		}
		total += len(w.cands)
	}
	tab.cands = make([]Candidate, 0, total)
	for _, w := range ws {
		off := int32(len(tab.cands))
		tab.cands = append(tab.cands, w.cands...)
		if off == 0 {
			continue
		}
		for cur := w.lo; cur < w.hi; cur++ {
			row := tab.spans[cur*n*2 : (cur+1)*n*2]
			for i := range row {
				if i/2 != cur { // the diagonal stays the empty span {0, 0}
					row[i].start += off
					row[i].end += off
				}
			}
		}
	}
	return tab, nil
}

// rowCompiler compiles rows [lo, hi) of a table: it writes those rows'
// spans, relative to its own candidate arena, and owns every scratch
// buffer it evaluates with, so workers share nothing but the relation
// and disjoint rows of the span array.
type rowCompiler struct {
	alg       VCAlgorithm
	t         *topology.Topology
	n, vcs    int
	invariant bool
	spans     []span
	lo, hi    int

	eval                 Evaluator
	injList, arrList, pr []Candidate
	cands                []Candidate
	intern               rowIntern

	err      error
	panicked any
}

func newRowCompiler(alg VCAlgorithm, spans []span, lo, hi int) *rowCompiler {
	t := alg.Topology()
	return &rowCompiler{
		alg:       alg,
		t:         t,
		n:         t.Nodes(),
		vcs:       alg.NumVCs(),
		invariant: isArrivalInvariant(alg),
		spans:     spans,
		lo:        lo,
		hi:        hi,
		eval:      NewEvaluator(alg),
		intern:    newRowIntern(2 * t.Nodes()),
	}
}

// run compiles the worker's rows, stopping at the first row that fails
// verification, which it records in failRow unless a lower row is
// there already, or before any row past failRow.
func (w *rowCompiler) run(failRow *atomic.Int64) {
	for cur := int64(w.lo); cur < int64(w.hi); cur++ {
		if cur > failRow.Load() {
			return
		}
		if w.row(topology.NodeID(cur)); w.err != nil {
			for {
				f := failRow.Load()
				if cur >= f || failRow.CompareAndSwap(f, cur) {
					return
				}
			}
		}
	}
}

// row compiles both candidate lists of every (cur, dst) pair, interning
// identical lists within the row.
func (w *rowCompiler) row(cur topology.NodeID) {
	w.intern.reset()
	ndim2 := 2 * w.t.NumDims()
	for dst := topology.NodeID(0); int(dst) < w.n; dst++ {
		if dst == cur {
			continue // headers at their destination eject; both spans stay empty
		}
		w.injList = w.eval.Candidates(cur, dst, VCInjected, w.injList[:0])
		if w.invariant {
			w.arrList = w.eval.Candidates(cur, dst, VCInPort{Dir: topology.Direction{}}, w.arrList[:0])
		} else {
			// Verify arrival invariance over every port a packet can
			// actually arrive on: travelling d means it came over the
			// channel paired with cur's d.Opposite() channel.
			first := true
			for di := 0; di < ndim2; di++ {
				d := topology.DirectionFromIndex(di)
				if !w.t.HasChannel(cur, d.Opposite()) {
					continue
				}
				for vc := 0; vc < w.vcs; vc++ {
					w.pr = w.eval.Candidates(cur, dst, VCInPort{Dir: d, VC: vc}, w.pr[:0])
					if first {
						w.arrList = append(w.arrList[:0], w.pr...)
						first = false
					} else if !candsEqual(w.arrList, w.pr) {
						w.err = fmt.Errorf("routing: %s depends on the arrival port at node %d (dst %d); not compilable",
							w.alg.Name(), cur, dst)
						return
					}
				}
			}
			if first {
				// No network input can reach cur (isolated by faults);
				// only the injected list matters.
				w.arrList = append(w.arrList[:0], w.injList...)
			}
		}
		si := (int(cur)*w.n + int(dst)) * 2
		w.spans[si] = w.internSpan(w.injList)
		w.spans[si+1] = w.internSpan(w.arrList)
	}
}

// internSpan returns the span of an identical list already stored for
// the current row, or appends list to the arena.
func (w *rowCompiler) internSpan(list []Candidate) span {
	slot := w.intern.lookup(list, w.cands)
	if slot.full {
		return slot.s
	}
	start := int32(len(w.cands))
	w.cands = append(w.cands, list...)
	slot.s, slot.full = span{start: start, end: int32(len(w.cands))}, true
	return slot.s
}

// rowIntern is an open-addressing hash set of the candidate lists
// stored for one row, keyed by list contents. Within a row every
// candidate's Out follows from its Dir and VC, so the hash covers Dir,
// VC and Prof only; equality is checked on the stored list. reset
// empties just the slots the row used, so a worker reuses one set for
// all its rows without allocating.
type rowIntern struct {
	slots []internSlot
	used  []int
}

type internSlot struct {
	s    span
	full bool
}

// newRowIntern sizes the set for up to maxLists distinct lists per row
// at a load factor of at most one half.
func newRowIntern(maxLists int) rowIntern {
	size := 1
	for size < 2*maxLists {
		size <<= 1
	}
	return rowIntern{slots: make([]internSlot, size)}
}

func (r *rowIntern) reset() {
	for _, i := range r.used {
		r.slots[i].full = false
	}
	r.used = r.used[:0]
}

// lookup returns the slot holding a list of arena equal to list, or
// the empty slot where list belongs, which the caller fills.
func (r *rowIntern) lookup(list, arena []Candidate) *internSlot {
	h := uint64(14695981039346656037) // FNV-1a over the packed candidates
	for _, c := range list {
		v := uint64(c.Dir) | uint64(c.VC)<<8
		if c.Prof {
			v |= 1 << 16
		}
		h = (h ^ v) * 1099511628211
	}
	mask := uint64(len(r.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := &r.slots[i]
		if !slot.full {
			r.used = append(r.used, int(i))
			return slot
		}
		if candsEqual(arena[slot.s.start:slot.s.end], list) {
			return slot
		}
	}
}

// tableSlot holds the table compiled from the relation that embeds it
// (through base): the table at its fault epoch, or a sticky failure (a
// relation that is not compilable at one epoch will not become
// compilable at another). It lives and dies with the relation, so no
// process-wide cache, size cap or eviction is needed. A type that
// embeds a relation of this package would share that relation's slot;
// none does.
type tableSlot struct {
	mu     sync.Mutex
	table  *Table
	failed bool
}

func (b *base) tableSlot() *tableSlot { return &b.table }

// slotOf returns the slot alg's table is kept in, or nil when alg has
// none.
func slotOf(alg any) *tableSlot {
	if o, ok := alg.(interface{ tableSlot() *tableSlot }); ok {
		return o.tableSlot()
	}
	return nil
}

// TableFor returns the compiled routing table for alg at its topology's
// current fault epoch, compiling on first use and keeping the table on
// the relation itself, so repeated calls — e.g. one simulation per load
// point sharing one relation instance — reuse the compilation. After
// the topology's fault set changes, the stale table is replaced by a
// fresh compilation on the next call. It returns nil when alg is not
// compilable (arrival-dependent relations, oversized topologies);
// callers fall back to direct CandidatesVC evaluation.
//
// The table is kept for this package's relations and for AsVC's view
// of them. A relation defined elsewhere has nowhere to keep one and is
// compiled on every call.
func TableFor(alg VCAlgorithm) *Table {
	s := slotOf(alg)
	if s == nil {
		tab, _ := Compile(alg) // nil when not compilable, as below
		return tab
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil
	}
	if s.table != nil && s.table.epoch == alg.Topology().FaultEpoch() {
		return s.table
	}
	tab, err := Compile(alg)
	if err != nil {
		s.table, s.failed = nil, true
		return nil
	}
	s.table = tab
	return tab
}
