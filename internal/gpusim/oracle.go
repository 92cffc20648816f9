package gpusim

import "sort"

// This file preserves the pre-streaming replay engine verbatim as the
// equivalence oracle (select it with Device.SetEngine(EngineOracle)).
// It materializes each resident window's traces before replaying,
// allocates kind/member slices per warp step, orders kinds and coalesced
// lines with sort.Slice, and consults the caches through the plain
// associative scan — exactly the engine the streaming path replaced. The
// A/B suite (TestEngineABMatrix and the kernel-level equivalence tests)
// proves both engines produce ==-equal Metrics for every kernel,
// divergence shape, warp size and resident-window configuration, and
// BenchmarkRunOracle times it beside BenchmarkRunStreaming.

// runBlockOracle traces and replays one thread block on an SM. Warps are
// processed in windows of ResidentWarps whose unit execution interleaves
// round-robin, so the window's combined working set contends for the SM's
// caches the way concurrently resident warps do on hardware.
func (d *Device) runBlockOracle(sm *smState, l Launch, block int) {
	ws := d.cfg.WarpSize
	window := d.cfg.ResidentWarps
	warps := (l.ThreadsPerBlock + ws - 1) / ws
	for w0 := 0; w0 < warps; w0 += window {
		w1 := w0 + window
		if w1 > warps {
			w1 = warps
		}
		// Trace every lane of the resident window.
		var resident [][]*Lane
		for w := w0; w < w1; w++ {
			warpStart := w * ws
			n := ws
			if warpStart+n > l.ThreadsPerBlock {
				n = l.ThreadsPerBlock - warpStart
			}
			lanes := sm.lanes[(w-w0)*ws : (w-w0)*ws+n]
			for i := 0; i < n; i++ {
				lane := lanes[i]
				lane.reset(warpStart+i, block)
				l.Kernel(lane, block, warpStart+i)
				lane.closeUnit()
			}
			resident = append(resident, lanes)
		}
		// Interleave the warps' unit steps round-robin.
		maxUnits := 0
		for _, lanes := range resident {
			for _, lane := range lanes {
				if len(lane.units) > maxUnits {
					maxUnits = len(lane.units)
				}
			}
		}
		for t := 0; t < maxUnits; t++ {
			for _, lanes := range resident {
				d.replayWarpStepOracle(sm, lanes, t)
			}
		}
	}
}

// replayWarpStepOracle replays unit step t of one warp in SIMT lockstep,
// charging instruction issue, divergence, coalescing, caches and DRAM.
func (d *Device) replayWarpStepOracle(sm *smState, lanes []*Lane, t int) {
	var kinds []uint16
	var members []*Lane
	for _, lane := range lanes {
		if t < len(lane.units) {
			k := lane.units[t].kind
			seen := false
			for _, kk := range kinds {
				if kk == k {
					seen = true
					break
				}
			}
			if !seen {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) == 0 {
		return
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	// Divergent kinds at the same step serialise; each group issues
	// independently with only its members active.
	for _, k := range kinds {
		members = members[:0]
		for _, lane := range lanes {
			if t < len(lane.units) && lane.units[t].kind == k {
				members = append(members, lane)
			}
		}
		d.replayGroupOracle(sm, members, t)
	}
}

// replayGroupOracle issues the t-th unit of the member lanes as one
// lockstep group.
func (d *Device) replayGroupOracle(sm *smState, members []*Lane, t int) {
	m := &sm.m
	var maxInsts, maxFlops, maxLoads, maxStores uint64
	for _, lane := range members {
		u := lane.units[t]
		loads := uint64(u.loadEnd - u.loadStart)
		stores := uint64(u.stEnd - u.stStart)
		insts := uint64(u.flops) + loads + stores
		m.ThreadInsts += insts
		m.Flops += uint64(u.flops)
		if insts > maxInsts {
			maxInsts = insts
		}
		if uint64(u.flops) > maxFlops {
			maxFlops = uint64(u.flops)
		}
		if loads > maxLoads {
			maxLoads = loads
		}
		if stores > maxStores {
			maxStores = stores
		}
	}
	m.IssuedWarpInsts += maxInsts
	m.IssuedFlops += maxFlops
	sm.warpInsts += maxInsts

	// Loads: the i-th load of every member forms one warp memory
	// instruction; unique L1 lines among active lanes become transactions.
	for i := uint64(0); i < maxLoads; i++ {
		sm.addrs = sm.addrs[:0]
		for _, lane := range members {
			u := lane.units[t]
			if u.loadStart+uint32(i) < u.loadEnd {
				sm.addrs = append(sm.addrs, lane.loads[u.loadStart+uint32(i)])
			}
		}
		m.LoadReqBytes += 8 * uint64(len(sm.addrs))
		d.accessLinesOracle(sm, sm.addrs, true)
	}
	for i := uint64(0); i < maxStores; i++ {
		sm.addrs = sm.addrs[:0]
		for _, lane := range members {
			u := lane.units[t]
			if u.stStart+uint32(i) < u.stEnd {
				sm.addrs = append(sm.addrs, lane.stores[u.stStart+uint32(i)])
			}
		}
		m.StoreReqBytes += 8 * uint64(len(sm.addrs))
		d.accessLinesOracle(sm, sm.addrs, false)
	}
}

// accessLinesOracle coalesces the lane addresses of one warp memory
// instruction into unique cache lines and walks them through the
// hierarchy. Loads consult L1 then L2 then DRAM; stores write through to
// DRAM at line granularity (non-allocating, like Kepler's global store
// path).
func (d *Device) accessLinesOracle(sm *smState, addrs []uintptr, isLoad bool) {
	if len(addrs) == 0 {
		return
	}
	line := uintptr(d.cfg.L1LineBytes)
	sm.lines = sm.lines[:0]
	for _, a := range addrs {
		sm.lines = append(sm.lines, a/line)
	}
	sort.Slice(sm.lines, func(i, j int) bool { return sm.lines[i] < sm.lines[j] })
	uniq := sm.lines[:0]
	for i, ln := range sm.lines {
		if i == 0 || ln != uniq[len(uniq)-1] {
			uniq = append(uniq, ln)
		}
	}
	m := &sm.m
	if isLoad {
		m.L1TransferBytes += uint64(len(uniq)) * uint64(d.cfg.L1LineBytes)
		for _, ln := range uniq {
			m.L1Accesses++
			if sm.l1.accessScan(ln) {
				m.L1Hits++
				continue
			}
			m.L2Accesses++
			if sm.l2.accessScan(ln) {
				m.L2Hits++
				continue
			}
			m.DRAMReadBytes += uint64(d.cfg.L2LineBytes)
		}
	} else {
		m.DRAMWriteBytes += uint64(len(uniq)) * uint64(d.cfg.L2LineBytes)
	}
}
