package sat

import "math"

// This file implements the flat clause arena. Clauses used to be
// individual Go heap objects (*clause) chased through watcher lists and
// reason pointers; they are now slices of one contiguous []Lit backing
// array, addressed by 32-bit refs. The wins are locality (the propagation
// loop walks clause literals that sit next to each other in memory, and a
// watcher entry shrinks from a pointer+Lit to a uint32+Lit) and GC
// pressure (one slice instead of hundreds of thousands of small objects).
//
// Layout: a clause at ref r occupies hdrWords+len words of the arena —
//
//	data[r+0]  size<<1 | learnt-flag
//	data[r+1]  literal block distance (learnt clauses)
//	data[r+2]  activity, low 32 bits of the float64
//	data[r+3]  activity, high 32 bits
//	data[r+4…] the literals
//
// The activity stays a full float64 split across two words so reduceDB's
// activity ordering is bit-for-bit the ordering the pointer-based store
// produced — the arena is a layout change, never a search change.
//
// Word 0 of the arena is a sentinel so nilRef (0) is never a valid
// clause; refs are handed out in allocation order and only ever move
// during compaction (see Solver.compactArena), which rewrites every live
// ref in the watch lists and reason slots in place.

// clauseRef addresses a clause stored in the solver's arena.
type clauseRef uint32

// nilRef is the zero clauseRef; it never addresses a clause.
const nilRef clauseRef = 0

const (
	hdrWords   = 4
	flagLearnt = 1 << 0
	sizeShift  = 1
)

// clauseArena is the flat backing store for all clauses of one solver.
type clauseArena struct {
	data []Lit
	// wasted counts the words occupied by freed clauses; compaction
	// reclaims them when they dominate the arena.
	wasted int
}

func newArena() *clauseArena {
	return &clauseArena{data: make([]Lit, 1, 1024)}
}

// alloc stores a copy of lits and returns its ref. The input slice is not
// retained (and may itself alias arena storage: the copy happens via
// append's element-wise copy after any growth).
func (a *clauseArena) alloc(lits []Lit, learnt bool) clauseRef {
	if uint64(len(a.data))+uint64(hdrWords+len(lits)) > math.MaxUint32 {
		panic("sat: clause arena exceeds 32-bit ref space")
	}
	r := clauseRef(len(a.data))
	w0 := Lit(len(lits) << sizeShift)
	if learnt {
		w0 |= flagLearnt
	}
	a.data = append(a.data, w0, 0, 0, 0)
	a.data = append(a.data, lits...)
	return r
}

// lits returns the clause's literal block. The slice aliases arena
// storage: it is writable (the propagation loop reorders watches in
// place) but must not be held across an alloc or a compaction.
//
//satlint:hotpath alloc-free
func (a *clauseArena) lits(r clauseRef) []Lit {
	n := int(uint32(a.data[r]) >> sizeShift)
	return a.data[int(r)+hdrWords : int(r)+hdrWords+n]
}

//satlint:hotpath alloc-free
func (a *clauseArena) size(r clauseRef) int {
	return int(uint32(a.data[r]) >> sizeShift)
}

//satlint:hotpath alloc-free
func (a *clauseArena) learnt(r clauseRef) bool {
	return a.data[r]&flagLearnt != 0
}

//satlint:hotpath alloc-free
func (a *clauseArena) lbd(r clauseRef) int { return int(a.data[r+1]) }

//satlint:hotpath alloc-free
func (a *clauseArena) setLBD(r clauseRef, v int) { a.data[r+1] = Lit(v) }

//satlint:hotpath alloc-free
func (a *clauseArena) activity(r clauseRef) float64 {
	bits := uint64(uint32(a.data[r+2])) | uint64(uint32(a.data[r+3]))<<32
	return math.Float64frombits(bits)
}

//satlint:hotpath alloc-free
func (a *clauseArena) setActivity(r clauseRef, f float64) {
	bits := math.Float64bits(f)
	a.data[r+2] = Lit(int32(uint32(bits)))
	a.data[r+3] = Lit(int32(uint32(bits >> 32)))
}

// free marks the clause's words as garbage. The storage is reclaimed by
// the next compaction; until then the header and literals stay intact
// (reduceDB reads the literals for proof deletion after detaching).
func (a *clauseArena) free(r clauseRef) {
	a.wasted += hdrWords + a.size(r)
}

// compactArena rewrites the arena without its freed clauses and remaps
// every live ref — clause lists, watch lists, and reason slots — to the
// relocated addresses. Relocation preserves the allocation order of the
// surviving clauses and every byte of their contents, and the watch
// lists are rewritten in place without reordering, so compaction is
// invisible to the search: same decisions, same propagations, same
// conflicts before and after.
func (s *Solver) compactArena() {
	old := s.ca.data
	nd := make([]Lit, 1, len(old)-s.ca.wasted)
	move := func(r clauseRef) clauseRef {
		n := int(uint32(old[r]) >> sizeShift)
		nr := clauseRef(len(nd))
		nd = append(nd, old[int(r):int(r)+hdrWords+n]...)
		// Forwarding pointer: detached clauses are never looked up again,
		// so reusing the old header word is safe.
		old[r] = Lit(int32(uint32(nr)))
		return nr
	}
	for i, r := range s.clauses {
		s.clauses[i] = move(r)
	}
	for i, r := range s.learnts {
		s.learnts[i] = move(r)
	}
	fwd := func(r clauseRef) clauseRef { return clauseRef(uint32(old[r])) }
	for p := range s.occs {
		o := &s.occs[p]
		for i := range o.watches {
			o.watches[i].ref = fwd(o.watches[i].ref)
		}
		for i := range o.bins {
			o.bins[i].ref = fwd(o.bins[i].ref)
		}
	}
	for v := range s.vars {
		if r := &s.vars[v].reason; r.ref != nilRef {
			r.ref = fwd(r.ref)
		}
	}
	s.ca.data = nd
	s.ca.wasted = 0
}
