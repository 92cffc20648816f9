package gpusim

// Lane is the per-thread trace recorder handed to kernel functions. A
// kernel expresses its execution as a sequence of work units — the
// granularity at which SIMT lockstep is modelled. Within a warp, the i-th
// unit of every lane executes together when the unit kinds match; lanes
// whose unit kind differs at the same position serialise (branch
// divergence), and lanes that have run out of units sit idle (trip-count
// divergence). Within matching units, the i-th load of every lane forms one
// warp memory instruction for the coalescer.
//
// All global-memory accesses are 8 bytes (double precision), matching the
// simulation's data, so Load/Store take only an address. Accesses are
// stored as runs: Load and Store record a one-access run and
// LoadStencil3x3 records the nine loads of a 3×3 stencil as one run. Both forms record the identical load
// sequence — a stencil run replays exactly as its nine single Loads would
// (TestTraceFormAB) — the run form only makes the trace smaller and lets
// the replay issue a warp's nine stencil instructions from one gather.
type Lane struct {
	// ThreadID is the lane's thread index within its block; BlockID the
	// block index within the launch.
	ThreadID, BlockID int

	units  []unit
	loads  []run
	stores []run
}

// unit is one recorded work unit. runStart/runEnd bound its load runs and
// loads is their expanded load count, so instruction accounting sees the
// identical load sequence whether the kernel recorded singles or runs;
// stStart/stEnd bound its stores, each a one-element run.
type unit struct {
	kind     uint16
	flops    uint32
	loads    uint32
	runStart uint32
	runEnd   uint32
	stStart  uint32
	stEnd    uint32
}

// run is a recorded sequence of n accesses: the k-th is at
// addr + stencilOX[k]·col + stencilOY[k]·row. A single Load is n = 1 with
// zero strides (as is every Store); a 3×3 stencil is n = 9.
type run struct {
	addr, col, row uintptr
	n              uint32
}

// stencilOX/stencilOY give the column and row offset of the k-th load of
// a stencil run: row-major with oy as the outer loop.
var (
	stencilOX = [9]uintptr{0, 1, 2, 0, 1, 2, 0, 1, 2}
	stencilOY = [9]uintptr{0, 0, 0, 1, 1, 1, 2, 2, 2}
)

// at returns the address of the run's k-th access.
func (r *run) at(k uint32) uintptr {
	return r.addr + stencilOX[k]*r.col + stencilOY[k]*r.row
}

// Begin opens a new work unit of the given kind, closing the previous one.
// Kind values are kernel-defined labels for basic blocks; two lanes of a
// warp proceed in lockstep only while their current units share a kind.
// Lanes are arena-reused across warps, so after the first trace sized the
// units slice, reopening a slot writes in place instead of appending.
func (l *Lane) Begin(kind int) {
	n := len(l.units)
	if n > 0 {
		l.units[n-1].runEnd = uint32(len(l.loads))
		l.units[n-1].stEnd = uint32(len(l.stores))
	}
	u := unit{
		kind:     uint16(kind),
		runStart: uint32(len(l.loads)),
		stStart:  uint32(len(l.stores)),
	}
	if n < cap(l.units) {
		l.units = l.units[:n+1]
		l.units[n] = u
		return
	}
	l.units = append(l.units, u)
}

func (l *Lane) closeUnit() {
	if n := len(l.units); n > 0 {
		l.units[n-1].runEnd = uint32(len(l.loads))
		l.units[n-1].stEnd = uint32(len(l.stores))
	}
}

// ensure opens an implicit unit of kind 0 when a kernel records work
// without calling Begin first.
func (l *Lane) ensure() {
	if len(l.units) == 0 {
		l.Begin(0)
	}
}

// Flops charges n double-precision floating-point operations to the
// current unit.
func (l *Lane) Flops(n int) {
	l.ensure()
	l.units[len(l.units)-1].flops += uint32(n)
}

// Load records an 8-byte global-memory read at the simulated address addr.
func (l *Lane) Load(addr uintptr) {
	l.ensure()
	l.units[len(l.units)-1].loads++
	l.loads = append(l.loads, run{addr: addr, n: 1})
}

// LoadStencil3x3 records the nine 8-byte reads of a 3×3 stencil,
// corner + ox·col + oy·row for oy = 0, 1, 2 (outer) and ox = 0, 1, 2
// (inner). It records the identical load sequence as nine Load calls in
// that order, as one trace run.
func (l *Lane) LoadStencil3x3(corner, col, row uintptr) {
	l.ensure()
	l.units[len(l.units)-1].loads += 9
	l.loads = append(l.loads, run{addr: corner, col: col, row: row, n: 9})
}

// Store records an 8-byte global-memory write at the simulated address
// addr. Stores are counted in the traffic totals but, like a write-through
// non-allocating GPU L1, do not populate the L1 cache.
func (l *Lane) Store(addr uintptr) {
	l.ensure()
	l.stores = append(l.stores, run{addr: addr, n: 1})
}

// Units returns the number of recorded work units (useful in tests).
func (l *Lane) Units() int { return len(l.units) }

// LaneFlops returns the total flops recorded (useful in tests). It is
// read-only: the flops counter of every unit — including the still-open
// one — is maintained live by Flops, so no closeUnit is needed, and a
// mid-trace caller must not have its open unit's load/store bounds
// stamped early.
func (l *Lane) LaneFlops() uint64 {
	var s uint64
	for _, u := range l.units {
		s += uint64(u.flops)
	}
	return s
}

// expandLoads returns the expanded load addresses of unit u.
func (l *Lane) expandLoads(u *unit) []uintptr {
	dst := make([]uintptr, 0, u.loads)
	for i := u.runStart; i < u.runEnd; i++ {
		r := &l.loads[i]
		for k := uint32(0); k < r.n; k++ {
			dst = append(dst, r.at(k))
		}
	}
	return dst
}

// reset clears the trace for reuse, keeping capacity.
func (l *Lane) reset(threadID, blockID int) {
	l.ThreadID, l.BlockID = threadID, blockID
	l.units = l.units[:0]
	l.loads = l.loads[:0]
	l.stores = l.stores[:0]
}
