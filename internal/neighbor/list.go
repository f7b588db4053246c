package neighbor

import (
	"fmt"
	"math"
	"slices"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// List is a CSR Verlet neighbor list, the exact data layout of the
// paper's Figs. 1/2/7/8: Index is neighindex[], Len is neighlen[], and
// Neigh is neighlist[]. A half list stores each pair once (j > i) and
// relies on the reductions rho[j] += …, force[j] -= … the paper
// parallelizes; a full list stores both directions and is what the
// Redundant-Computations strategy consumes.
type List struct {
	// Half records whether each pair appears once (true) or twice.
	Half bool
	// Cutoff is the interaction cutoff rc the list was built for.
	Cutoff float64
	// Skin is the extra shell captured so the list survives some motion.
	Skin float64
	// Index[i] is the offset of atom i's neighbors in Neigh.
	Index []int32
	// Len[i] is atom i's neighbor count.
	Len []int32
	// Neigh holds the neighbor atom indices.
	Neigh []int32
}

// N returns the number of atoms the list covers.
func (l *List) N() int { return len(l.Index) }

// Pairs returns the number of stored (i,j) entries.
func (l *List) Pairs() int { return len(l.Neigh) }

// Neighbors returns atom i's neighbor slice (aliases internal storage).
func (l *List) Neighbors(i int) []int32 {
	s := l.Index[i]
	return l.Neigh[s : s+l.Len[i]]
}

// Stats summarizes a built list for workload accounting; the perf model
// feeds on these numbers.
type Stats struct {
	Atoms    int
	Pairs    int
	MinLen   int
	MaxLen   int
	MeanLen  float64
	HalfList bool
}

// Stats computes summary statistics.
func (l *List) Stats() Stats {
	st := Stats{Atoms: l.N(), Pairs: l.Pairs(), HalfList: l.Half, MinLen: int(^uint(0) >> 1)}
	if st.Atoms == 0 {
		st.MinLen = 0
		return st
	}
	for _, n := range l.Len {
		if int(n) < st.MinLen {
			st.MinLen = int(n)
		}
		if int(n) > st.MaxLen {
			st.MaxLen = int(n)
		}
	}
	st.MeanLen = float64(st.Pairs) / float64(st.Atoms)
	return st
}

// Validate performs structural checks: offsets in range, half-list
// ordering (j > i), no self pairs, no duplicates per atom. It is O(pairs
// log pairs) and intended for tests and debug runs.
func (l *List) Validate() error {
	n := l.N()
	if len(l.Len) != n {
		return fmt.Errorf("neighbor: Index/Len length mismatch %d vs %d", n, len(l.Len))
	}
	for i := 0; i < n; i++ {
		s, ln := l.Index[i], l.Len[i]
		if s < 0 || ln < 0 || int(s)+int(ln) > len(l.Neigh) {
			return fmt.Errorf("neighbor: atom %d CSR range [%d,%d) out of bounds", i, s, int(s)+int(ln))
		}
		nb := l.Neighbors(i)
		seen := make(map[int32]struct{}, len(nb))
		for _, j := range nb {
			if int(j) == i {
				return fmt.Errorf("neighbor: atom %d lists itself", i)
			}
			if j < 0 || int(j) >= n {
				return fmt.Errorf("neighbor: atom %d lists out-of-range neighbor %d", i, j)
			}
			if l.Half && int(j) < i {
				return fmt.Errorf("neighbor: half list atom %d lists smaller index %d", i, j)
			}
			if _, dup := seen[j]; dup {
				return fmt.Errorf("neighbor: atom %d lists %d twice", i, j)
			}
			seen[j] = struct{}{}
		}
	}
	return nil
}

// PairSet returns the canonical set of unordered pairs {min(i,j),
// max(i,j)} for comparison between builders (test helper).
func (l *List) PairSet() map[[2]int32]struct{} {
	set := make(map[[2]int32]struct{}, l.Pairs())
	for i := 0; i < l.N(); i++ {
		for _, j := range l.Neighbors(i) {
			a, b := int32(i), j
			if a > b {
				a, b = b, a
			}
			set[[2]int32{a, b}] = struct{}{}
		}
	}
	return set
}

// ToFull converts a half list into the equivalent full list (each pair
// stored in both directions). The Redundant-Computations strategy needs
// this: it doubles pair work in exchange for race-free writes, and its
// extra memory footprint is exactly the doubling the paper calls out.
func (l *List) ToFull() *List {
	if !l.Half {
		cp := *l
		cp.Index = append([]int32(nil), l.Index...)
		cp.Len = append([]int32(nil), l.Len...)
		cp.Neigh = append([]int32(nil), l.Neigh...)
		return &cp
	}
	n := l.N()
	counts := make([]int32, n)
	copy(counts, l.Len)
	for i := 0; i < n; i++ {
		for _, j := range l.Neighbors(i) {
			counts[j]++
		}
	}
	full := &List{
		Half:   false,
		Cutoff: l.Cutoff,
		Skin:   l.Skin,
		Index:  make([]int32, n),
		Len:    make([]int32, n),
		Neigh:  make([]int32, 2*l.Pairs()),
	}
	var off int32
	for i := 0; i < n; i++ {
		full.Index[i] = off
		off += counts[i]
	}
	cursor := append([]int32(nil), full.Index...)
	for i := 0; i < n; i++ {
		for _, j := range l.Neighbors(i) {
			full.Neigh[cursor[i]] = j
			cursor[i]++
			full.Neigh[cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	for i := 0; i < n; i++ {
		full.Len[i] = cursor[i] - full.Index[i]
	}
	// Keep each atom's neighbors sorted for deterministic traversal.
	for i := 0; i < n; i++ {
		slices.Sort(full.Neighbors(i))
	}
	return full
}

// Builder configures neighbor-list construction.
type Builder struct {
	// Cutoff is the interaction range rc (> 0).
	Cutoff float64
	// Skin is the Verlet skin added to rc when searching (>= 0); the
	// list then stays valid until some atom moves more than Skin/2.
	Skin float64
	// Half selects half (j > i) or full lists.
	Half bool
}

// Parallelizer is the worker-pool capability BuildParallel needs; the
// strategy.Pool satisfies it (declared here to avoid a dependency
// cycle). ParallelFor must hand each worker at most one static block.
type Parallelizer interface {
	Threads() int
	ParallelFor(n int, body func(start, end, tid int))
}

// serial is the one-worker Parallelizer behind Build.
type serial struct{}

func (serial) Threads() int                                      { return 1 }
func (serial) ParallelFor(n int, body func(start, end, tid int)) { body(0, n, 0) }

// Build constructs the list with a cell grid (O(N)) on one worker; when
// the box is too small for a 3-cells-per-axis grid it falls back to the
// exact O(N²) search.
func (b Builder) Build(bx box.Box, pos []vec.Vec3) (*List, error) {
	return b.BuildParallel(bx, pos, nil)
}

// BuildParallel is Build with the search spread over a worker pool
// (nil means one worker). Each worker searches a static block of atoms
// in one pass, filling its own row buffer; a prefix sum over the
// buffers then places them in the final CSR, which is byte-identical to
// BuildBruteForce on wrapped positions at any worker count. Unwrapped
// positions keep the minimum-image semantics: the search runs on
// wrapped copies. The pool is only borrowed.
func (b Builder) BuildParallel(bx box.Box, pos []vec.Vec3, pool Parallelizer) (*List, error) {
	if err := b.validate(bx); err != nil {
		return nil, err
	}
	grid, err := NewCellGrid(bx, pos, b.Cutoff+b.Skin)
	if err != nil {
		return nil, err
	}
	if grid.Dims[0] < 3 || grid.Dims[1] < 3 || grid.Dims[2] < 3 {
		return b.BuildBruteForce(bx, pos)
	}
	if pool == nil {
		pool = serial{}
	}
	n := len(pos)
	s := search{Builder: b, grid: grid, packed: make([]vec.Vec3, n), slot: make([]int32, n)}
	for k, a := range grid.Atoms {
		s.packed[k] = bx.Wrap(pos[a])
		s.slot[a] = int32(k)
	}
	l := &List{Half: b.Half, Cutoff: b.Cutoff, Skin: b.Skin,
		Index: make([]int32, n), Len: make([]int32, n)}

	// One search pass: worker tid's rows land in segs[tid].
	segs := make([]segment, pool.Threads())
	pool.ParallelFor(n, func(start, end, tid int) {
		segs[tid] = segment{start: start, end: end, neigh: s.rows(l.Len, start, end)}
	})
	slices.SortFunc(segs, func(x, y segment) int { return x.start - y.start })
	total := 0
	for k := range segs {
		segs[k].off = total
		total += len(segs[k].neigh)
	}
	l.Neigh = make([]int32, total)
	pool.ParallelFor(len(segs), func(start, end, _ int) {
		for _, sg := range segs[start:end] {
			//lint:ignore sdc-shared-write segments are disjoint by construction: off is an exclusive prefix sum over the segment lengths
			copy(l.Neigh[sg.off:], sg.neigh)
			off := int32(sg.off)
			for i := sg.start; i < sg.end; i++ {
				//lint:ignore sdc-shared-write segments cover disjoint atom blocks [start, end)
				l.Index[i] = off
				off += l.Len[i]
			}
		}
	})
	return l, nil
}

// segment is one worker's block of rows before placement in the CSR.
type segment struct {
	start, end, off int
	neigh           []int32
}

// search is one cell-grid neighbor search: the grid and the wrapped
// positions packed in the grid's cell order, so each stencil run's
// candidates are read contiguously.
type search struct {
	Builder
	grid   *CellGrid
	packed []vec.Vec3 // packed[k] is the wrapped position of grid.Atoms[k]
	slot   []int32    // slot[i] is atom i's index into packed
}

// rows appends the sorted neighbor rows of atoms [start, end) to a new
// buffer, records each row length in lens, and returns the buffer. The
// pair test is (xi − xj) − shift per axis, the same arithmetic as the
// minimum image of BuildBruteForce, so both accept the same pairs.
func (s *search) rows(lens []int32, start, end int) []int32 {
	reach := s.Cutoff + s.Skin
	reach2 := reach * reach
	bx := s.grid.Box
	// Mean neighbors per atom, so the buffer rarely regrows.
	perAtom := float64(len(s.packed)) / bx.Volume() * 4 * math.Pi / 3 * reach * reach2
	if s.Half {
		perAtom /= 2
	}
	buf := make([]int32, 0, int(perAtom*float64(end-start))+16)
	half := s.Half
	st := make([]stencilRun, 0, 27)
	last := -1
	for i := start; i < end; i++ {
		if c := s.grid.CellOfAtom(i); c != last {
			st, last = s.grid.appendStencil(st[:0], c), c
		}
		i32 := int32(i)
		xi := s.packed[s.slot[i]]
		row := len(buf)
		for _, sc := range st {
			lo, hi := s.grid.Start[sc.first], s.grid.Start[sc.last+1]
			atoms := s.grid.Atoms[lo:hi]
			packed := s.packed[lo:hi]
			packed = packed[:len(atoms)]
			for k, j := range atoms {
				if j == i32 || (half && j < i32) {
					continue
				}
				dx := (xi[0] - packed[k][0]) - sc.shift[0]
				dy := (xi[1] - packed[k][1]) - sc.shift[1]
				dz := (xi[2] - packed[k][2]) - sc.shift[2]
				if dx*dx+dy*dy+dz*dz < reach2 {
					buf = append(buf, j)
				}
			}
		}
		slices.Sort(buf[row:])
		lens[i] = int32(len(buf) - row)
	}
	return buf
}

func (b Builder) validate(bx box.Box) error {
	if !(b.Cutoff > 0) {
		return fmt.Errorf("neighbor: cutoff %g must be positive", b.Cutoff)
	}
	if b.Skin < 0 {
		return fmt.Errorf("neighbor: skin %g must be non-negative", b.Skin)
	}
	if reach := b.Cutoff + b.Skin; !bx.FitsCutoff(reach) {
		return fmt.Errorf("neighbor: box %v too small for cutoff+skin %g (minimum image violated)", bx, reach)
	}
	return nil
}

// BuildBruteForce is the exact O(N²) construction used as the test
// oracle and as the small-box fallback.
func (b Builder) BuildBruteForce(bx box.Box, pos []vec.Vec3) (*List, error) {
	if err := b.validate(bx); err != nil {
		return nil, err
	}
	n := len(pos)
	reach2 := (b.Cutoff + b.Skin) * (b.Cutoff + b.Skin)
	l := &List{Half: b.Half, Cutoff: b.Cutoff, Skin: b.Skin,
		Index: make([]int32, n), Len: make([]int32, n), Neigh: []int32{}}
	for i := 0; i < n; i++ {
		l.Index[i] = int32(len(l.Neigh))
		start := 0
		if b.Half {
			start = i + 1
		}
		for j := start; j < n; j++ {
			if j != i && bx.Distance2(pos[i], pos[j]) < reach2 {
				l.Neigh = append(l.Neigh, int32(j))
			}
		}
		l.Len[i] = int32(len(l.Neigh)) - l.Index[i]
	}
	return l, nil
}

// Exceeds reports whether any atom has moved more than sqrt(limit2)
// (minimum image) between two snapshots, stopping at the first; the
// simulator rebuilds the list past Skin/2. A component within half the box
// is its own minimum image, so only face-crossing atoms pay the
// rounding division; for a limit below half the shortest periodic edge
// the answer matches thresholding Box.Distance2.
func Exceeds(bx box.Box, old, cur []vec.Vec3, limit2 float64) bool {
	l := bx.Lengths()
	for i := range cur {
		d := cur[i].Sub(old[i])
		for a := 0; a < 3; a++ {
			if bx.Periodic[a] && math.Abs(d[a]) > l[a]/2 {
				d[a] -= l[a] * math.Round(d[a]/l[a])
			}
		}
		if d.Norm2() > limit2 {
			return true
		}
	}
	return false
}
