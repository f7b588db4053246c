package neighbor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/lattice"
	"sdcmd/internal/vec"
)

func randomPositions(n int, bx box.Box, seed int64) []vec.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	l := bx.Lengths()
	ps := make([]vec.Vec3, n)
	for i := range ps {
		ps[i] = bx.Lo.Add(vec.New(rng.Float64()*l[0], rng.Float64()*l[1], rng.Float64()*l[2]))
	}
	return ps
}

func TestCellGridValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewCellGrid(bx, nil, 0); err == nil {
		t.Error("minCell=0 accepted")
	}
	if _, err := NewCellGrid(bx, nil, -1); err == nil {
		t.Error("minCell<0 accepted")
	}
}

func TestCellGridDims(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(10, 7, 2))
	g, err := NewCellGrid(bx, nil, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dims != [3]int{5, 3, 1} {
		t.Errorf("Dims = %v", g.Dims)
	}
	if g.NumCells() != 15 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
}

func TestCellGridBinningComplete(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(9))
	pos := randomPositions(500, bx, 7)
	g, err := NewCellGrid(bx, pos, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for c := 0; c < g.NumCells(); c++ {
		for _, a := range g.CellAtoms(c) {
			if seen[a] {
				t.Fatalf("atom %d binned twice", a)
			}
			seen[a] = true
			// The atom must geometrically be in this cell.
			if g.CellIndexOf(pos[a]) != c {
				t.Fatalf("atom %d in cell %d but CellIndexOf says %d", a, c, g.CellIndexOf(pos[a]))
			}
			if g.CellOfAtom(int(a)) != c {
				t.Fatalf("CellOfAtom mismatch for %d", a)
			}
		}
	}
	if len(seen) != len(pos) {
		t.Errorf("binned %d atoms of %d", len(seen), len(pos))
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(12, 8, 4))
	g, _ := NewCellGrid(bx, nil, 1.0)
	for c := 0; c < g.NumCells(); c++ {
		if got := g.Flatten(g.Unflatten(c)); got != c {
			t.Fatalf("round trip %d -> %v -> %d", c, g.Unflatten(c), got)
		}
	}
}

// stencilOf returns cell c's stencil keyed by flat index, failing on a
// duplicate entry.
func stencilOf(t *testing.T, g *CellGrid, c [3]int) map[int]vec.Vec3 {
	t.Helper()
	out := map[int]vec.Vec3{}
	for _, r := range g.appendStencil(nil, g.Flatten(c)) {
		if r.last < r.first || g.Unflatten(r.last)[2]-g.Unflatten(r.first)[2] != r.last-r.first {
			t.Fatalf("cell %v: run %d..%d is not one z column", c, r.first, r.last)
		}
		for f := r.first; f <= r.last; f++ {
			if _, dup := out[f]; dup {
				t.Fatalf("cell %v: stencil lists cell %v twice", c, g.Unflatten(f))
			}
			out[f] = r.shift
		}
	}
	return out
}

func TestStencilCount(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	g, _ := NewCellGrid(bx, nil, 2.0) // 5×5×5 periodic
	inner := stencilOf(t, g, [3]int{2, 2, 2})
	if len(inner) != 27 {
		t.Errorf("interior stencil = %d cells, want 27", len(inner))
	}
	for f, sh := range inner {
		if sh != vec.Zero {
			t.Errorf("interior neighbor %v carries image shift %v", g.Unflatten(f), sh)
		}
	}
	// Periodic wrap at the corner still yields 27 distinct cells; the
	// wrapped ones (coordinate 4) sit one box length below.
	corner := stencilOf(t, g, [3]int{0, 0, 0})
	if len(corner) != 27 {
		t.Errorf("corner stencil = %d distinct cells, want 27", len(corner))
	}
	for f, sh := range corner {
		c := g.Unflatten(f)
		for d := 0; d < 3; d++ {
			want := 0.0
			if c[d] == 4 {
				want = -10
			}
			if sh[d] != want {
				t.Errorf("corner neighbor %v: shift %v, want %g on axis %d", c, sh, want, d)
			}
		}
	}
}

func TestStencilMinimumGridNoDuplicates(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(6, 6, 20))
	g, _ := NewCellGrid(bx, nil, 2.0) // 3×3×10: the smallest grid the stencil serves
	for c := 0; c < g.NumCells(); c++ {
		if got := len(stencilOf(t, g, g.Unflatten(c))); got != 27 {
			t.Fatalf("cell %v: %d distinct stencil cells, want 27", g.Unflatten(c), got)
		}
	}
	// On a 3-cell axis both faces wrap: cell 2's +1 neighbor is cell 0
	// one box length up.
	st := stencilOf(t, g, [3]int{2, 1, 5})
	if sh := st[g.Flatten([3]int{0, 1, 5})]; sh != vec.New(6, 0, 0) {
		t.Errorf("wrapped +x neighbor shift = %v, want (6,0,0)", sh)
	}
}

func TestStencilOpenBoundary(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	bx.Periodic = [3]bool{false, true, true}
	g, _ := NewCellGrid(bx, nil, 2.0)
	for _, c := range [][3]int{{0, 2, 2}, {4, 2, 2}} {
		st := stencilOf(t, g, c)
		if len(st) != 18 { // 2×3×3: no wrap across the open x face
			t.Errorf("open-boundary stencil at %v = %d cells, want 18", c, len(st))
		}
		for f, sh := range st {
			if sh != vec.Zero {
				t.Errorf("open-boundary neighbor %v carries shift %v", g.Unflatten(f), sh)
			}
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	pos := randomPositions(10, bx, 1)
	if _, err := (Builder{Cutoff: 0}).Build(bx, pos); err == nil {
		t.Error("cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 1, Skin: -0.1}).Build(bx, pos); err == nil {
		t.Error("negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 6}).Build(bx, pos); err == nil {
		t.Error("cutoff violating minimum image accepted")
	}
	if _, err := (Builder{Cutoff: 0}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 1, Skin: -1}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 6}).BuildBruteForce(bx, pos); err == nil {
		t.Error("brute force minimum-image violation accepted")
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	for _, half := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			bx := box.MustNew(vec.Zero, vec.New(12, 10, 11))
			pos := randomPositions(400, bx, seed)
			b := Builder{Cutoff: 2.0, Skin: 0.3, Half: half}
			cell, err := b.Build(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := b.BuildBruteForce(bx, pos)
			if err != nil {
				t.Fatal(err)
			}
			cs, bs := cell.PairSet(), brute.PairSet()
			if len(cs) != len(bs) {
				t.Fatalf("half=%v seed=%d: %d pairs vs %d brute", half, seed, len(cs), len(bs))
			}
			for p := range bs {
				if _, ok := cs[p]; !ok {
					t.Fatalf("half=%v: missing pair %v", half, p)
				}
			}
			if err := cell.Validate(); err != nil {
				t.Fatalf("cell list invalid: %v", err)
			}
			if err := brute.Validate(); err != nil {
				t.Fatalf("brute list invalid: %v", err)
			}
		}
	}
}

func TestHalfListHalvesPairs(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(300, bx, 9)
	half, err := Builder{Cutoff: 2, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Builder{Cutoff: 2, Half: false}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("full pairs %d != 2×half %d", full.Pairs(), half.Pairs())
	}
}

func TestBCCNeighborCount(t *testing.T) {
	// bcc with rc between 1st and 2nd shell: exactly 8 neighbors each.
	cfg := lattice.MustBuild(lattice.BCC, 5, 5, 5, 2.8665)
	rc := 2.6 // 1st shell 2.4824, 2nd 2.8665
	l, err := Builder{Cutoff: rc, Half: false}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.MinLen != 8 || st.MaxLen != 8 {
		t.Errorf("bcc 1st shell count: min=%d max=%d, want 8", st.MinLen, st.MaxLen)
	}
	// rc between 2nd and 3rd shell: 8 + 6 = 14 neighbors.
	l2, err := Builder{Cutoff: 3.5, Half: false}.Build(cfg.Box, cfg.Pos)
	if err != nil {
		t.Fatal(err)
	}
	st2 := l2.Stats()
	if st2.MinLen != 14 || st2.MaxLen != 14 {
		t.Errorf("bcc 2-shell count: min=%d max=%d, want 14", st2.MinLen, st2.MaxLen)
	}
}

func TestToFull(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(200, bx, 11)
	half, err := Builder{Cutoff: 2.2, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full := half.ToFull()
	if full.Half {
		t.Error("ToFull result still marked half")
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("ToFull pairs %d, want %d", full.Pairs(), 2*half.Pairs())
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("ToFull invalid: %v", err)
	}
	// Same unordered pair set.
	hs, fs := half.PairSet(), full.PairSet()
	if len(hs) != len(fs) {
		t.Fatalf("pair sets differ: %d vs %d", len(hs), len(fs))
	}
	for p := range hs {
		if _, ok := fs[p]; !ok {
			t.Fatalf("pair %v lost in ToFull", p)
		}
	}
	// ToFull of a full list is a deep copy.
	cp := full.ToFull()
	cp.Neigh[0] = -99
	if full.Neigh[0] == -99 {
		t.Error("ToFull of full list must deep-copy")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(50, bx, 13)
	mk := func() *List {
		l, err := Builder{Cutoff: 3, Half: true}.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := mk()
	if l.Pairs() == 0 {
		t.Fatal("test needs some pairs")
	}

	c := mk()
	c.Neigh[0] = int32(999)
	if c.Validate() == nil {
		t.Error("out-of-range neighbor not caught")
	}

	c = mk()
	// Find an atom with a neighbor and make it list itself.
	for i := 0; i < c.N(); i++ {
		if c.Len[i] > 0 {
			c.Neigh[c.Index[i]] = int32(i)
			break
		}
	}
	if c.Validate() == nil {
		t.Error("self pair not caught")
	}

	c = mk()
	for i := 0; i < c.N(); i++ {
		if c.Len[i] >= 2 {
			c.Neigh[c.Index[i]+1] = c.Neigh[c.Index[i]]
			break
		}
	}
	if c.Validate() == nil {
		t.Error("duplicate neighbor not caught")
	}

	c = mk()
	c.Index[0] = -1
	if c.Validate() == nil {
		t.Error("negative offset not caught")
	}

	c = mk()
	c.Len = c.Len[:len(c.Len)-1]
	if c.Validate() == nil {
		t.Error("length mismatch not caught")
	}

	c = mk()
	// half list with j < i: give the last atom a small neighbor.
	last := c.N() - 1
	for i := last; i >= 0; i-- {
		if c.Len[i] > 0 && int(c.Neigh[c.Index[i]]) > 0 && i > 0 {
			c.Neigh[c.Index[i]] = 0
			_ = i
			break
		}
	}
	_ = c.Validate() // may or may not trip depending on which atom; no assertion
}

func TestSkinExpandsList(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(15))
	pos := randomPositions(400, bx, 17)
	noSkin, _ := Builder{Cutoff: 2}.Build(bx, pos)
	withSkin, _ := Builder{Cutoff: 2, Skin: 0.5}.Build(bx, pos)
	if withSkin.Pairs() <= noSkin.Pairs() {
		t.Errorf("skin did not expand list: %d vs %d", withSkin.Pairs(), noSkin.Pairs())
	}
	if withSkin.Skin != 0.5 || withSkin.Cutoff != 2 {
		t.Error("builder parameters not recorded")
	}
}

func TestSmallBoxFallsBackToBruteForce(t *testing.T) {
	// Box fits the cutoff (edges >= 2rc) but yields < 3 cells per axis,
	// forcing the brute-force fallback; results must still be exact.
	bx := box.MustNew(vec.Zero, vec.Splat(4.2))
	pos := randomPositions(60, bx, 19)
	b := Builder{Cutoff: 2.0, Half: true}
	got, err := b.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.BuildBruteForce(bx, pos)
	gs, ws := got.PairSet(), want.PairSet()
	if len(gs) != len(ws) {
		t.Fatalf("fallback pairs %d, want %d", len(gs), len(ws))
	}
}

// TestToFullPairAccounting pins the symmetrization bookkeeping the RC
// strategy's cost model rides on: ToFull stores every half pair in both
// directions (the make([]int32, 2*l.Pairs()) sizing), Stats().Pairs
// agrees with Pairs() on both list shapes, and the CSR Len rows sum to
// the same total — so a reducer reporting PairWork() from either list
// counts exactly the visits one sweep performs.
func TestToFullPairAccounting(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(250, bx, 11)
	half, err := Builder{Cutoff: 2.5, Skin: 0.5, Half: true}.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	full := half.ToFull()
	if err := full.Validate(); err != nil {
		t.Fatalf("symmetrized list invalid: %v", err)
	}
	if full.Half {
		t.Error("ToFull result still marked half")
	}
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("symmetrized pairs %d, want 2x%d", full.Pairs(), half.Pairs())
	}
	if full.Cutoff != half.Cutoff || full.Skin != half.Skin {
		t.Errorf("ToFull dropped build parameters: %g/%g vs %g/%g",
			full.Cutoff, full.Skin, half.Cutoff, half.Skin)
	}
	for name, l := range map[string]*List{"half": half, "full": full} {
		st := l.Stats()
		if st.Pairs != l.Pairs() {
			t.Errorf("%s: Stats.Pairs %d != Pairs() %d", name, st.Pairs, l.Pairs())
		}
		if st.HalfList != l.Half {
			t.Errorf("%s: Stats.HalfList %v != Half %v", name, st.HalfList, l.Half)
		}
		sum := 0
		for _, n := range l.Len {
			sum += int(n)
		}
		if sum != l.Pairs() {
			t.Errorf("%s: Len rows sum to %d, Pairs() says %d", name, sum, l.Pairs())
		}
	}
	// Both shapes describe the same physical pair set.
	hs, fs := half.PairSet(), full.PairSet()
	if len(hs) != len(fs) {
		t.Fatalf("pair sets differ: half %d, full %d", len(hs), len(fs))
	}
	for p := range hs {
		if _, ok := fs[p]; !ok {
			t.Fatalf("pair %v missing from symmetrized list", p)
		}
	}
}

// TestToFullDeepCopy: both ToFull branches (symmetrize a half list,
// clone an already-full list) must return storage independent of the
// receiver — a shared backing array would let one consumer's mutation
// corrupt another's traversal.
func TestToFullDeepCopy(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(120, bx, 13)
	for _, halfIn := range []bool{true, false} {
		src, err := Builder{Cutoff: 2.5, Half: halfIn}.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		wantIndex := append([]int32(nil), src.Index...)
		wantLen := append([]int32(nil), src.Len...)
		wantNeigh := append([]int32(nil), src.Neigh...)
		cp := src.ToFull()
		for i := range cp.Index {
			cp.Index[i] = -7
		}
		for i := range cp.Len {
			cp.Len[i] = -7
		}
		for i := range cp.Neigh {
			cp.Neigh[i] = -7
		}
		for i := range src.Index {
			if src.Index[i] != wantIndex[i] || src.Len[i] != wantLen[i] {
				t.Fatalf("half=%v: mutating the copy changed the source CSR arrays", halfIn)
			}
		}
		for i := range src.Neigh {
			if src.Neigh[i] != wantNeigh[i] {
				t.Fatalf("half=%v: mutating the copy changed the source Neigh", halfIn)
			}
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	l := &List{}
	st := l.Stats()
	if st.Atoms != 0 || st.Pairs != 0 || st.MinLen != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// maxDisplacement2 is the reference skin measure: the largest squared
// minimum-image displacement between two snapshots.
func maxDisplacement2(bx box.Box, old, cur []vec.Vec3) float64 {
	worst := 0.0
	for i := range cur {
		worst = math.Max(worst, bx.Distance2(cur[i], old[i]))
	}
	return worst
}

func TestExceeds(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	old := []vec.Vec3{{1, 1, 1}, {5, 5, 5}}
	cur := []vec.Vec3{{1, 1, 1.5}, {5, 5.2, 5}}
	// The largest displacement² is 0.25; the threshold is strict.
	if !Exceeds(bx, old, cur, 0.24) || Exceeds(bx, old, cur, 0.25) {
		t.Error("Exceeds misjudges a 0.5 Å move against limits 0.24 / 0.25")
	}
	// Across the periodic boundary the displacement is the short way
	// (0.2 Å, not 9.8 Å).
	old2 := []vec.Vec3{{0.1, 0, 0}}
	cur2 := []vec.Vec3{{9.9, 0, 0}}
	if !Exceeds(bx, old2, cur2, 0.03) || Exceeds(bx, old2, cur2, 0.05) {
		t.Error("periodic displacement not taken the short way")
	}
	if Exceeds(bx, nil, nil, 0) {
		t.Error("empty snapshot exceeds")
	}
	// Same decision as thresholding the reference measure, with moves
	// that cross periodic faces and an open axis.
	bx.Periodic[2] = false
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		old := randomPositions(50, bx, int64(trial))
		cur := make([]vec.Vec3, len(old))
		for i, p := range old {
			d := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.3)
			cur[i] = bx.Wrap(p.Add(d))
		}
		worst := maxDisplacement2(bx, old, cur)
		for _, limit := range []float64{0.1, 0.5, 1, 2, math.Sqrt(worst)} {
			if got, want := Exceeds(bx, old, cur, limit*limit), worst > limit*limit; got != want {
				t.Fatalf("trial %d limit %g: Exceeds = %v, reference max displacement² %g", trial, limit, got, worst)
			}
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(200, bx, 23)
	l, _ := Builder{Cutoff: 2.5, Half: true}.Build(bx, pos)
	for i := 0; i < l.N(); i++ {
		nb := l.Neighbors(i)
		for k := 1; k < len(nb); k++ {
			if nb[k-1] >= nb[k] {
				t.Fatalf("atom %d neighbors not sorted: %v", i, nb)
			}
		}
	}
}

// fakePool implements Parallelizer with plain goroutines.
type fakePool struct{ threads int }

func (p fakePool) Threads() int { return p.threads }

func (p fakePool) ParallelFor(n int, body func(start, end, tid int)) {
	var wg sync.WaitGroup
	chunk := (n + p.threads - 1) / p.threads
	for t := 0; t < p.threads; t++ {
		start := t * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			continue
		}
		wg.Add(1)
		go func(s, e, tid int) {
			defer wg.Done()
			body(s, e, tid)
		}(start, end, t)
	}
	wg.Wait()
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.New(14, 12, 13))
	pos := randomPositions(800, bx, 31)
	for _, half := range []bool{true, false} {
		b := Builder{Cutoff: 2.2, Skin: 0.4, Half: half}
		want, err := b.Build(bx, pos)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.BuildParallel(bx, pos, fakePool{threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.Pairs() != want.Pairs() {
			t.Fatalf("half=%v: %d pairs vs %d", half, got.Pairs(), want.Pairs())
		}
		for i := 0; i < got.N(); i++ {
			gn, wn := got.Neighbors(i), want.Neighbors(i)
			if len(gn) != len(wn) {
				t.Fatalf("half=%v atom %d: %d vs %d neighbors", half, i, len(gn), len(wn))
			}
			for k := range gn {
				if gn[k] != wn[k] {
					t.Fatalf("half=%v atom %d neighbor %d: %d vs %d", half, i, k, gn[k], wn[k])
				}
			}
		}
	}
}

func TestBuildParallelNilPoolFallsBack(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(100, bx, 3)
	b := Builder{Cutoff: 2, Half: true}
	got, err := b.BuildParallel(bx, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.Build(bx, pos)
	if got.Pairs() != want.Pairs() {
		t.Error("nil-pool fallback differs")
	}
}

func TestBuildParallelValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(12))
	pos := randomPositions(20, bx, 3)
	p := fakePool{threads: 2}
	if _, err := (Builder{Cutoff: 0}).BuildParallel(bx, pos, p); err == nil {
		t.Error("cutoff=0 accepted")
	}
	if _, err := (Builder{Cutoff: 2, Skin: -1}).BuildParallel(bx, pos, p); err == nil {
		t.Error("negative skin accepted")
	}
	if _, err := (Builder{Cutoff: 7}).BuildParallel(bx, pos, p); err == nil {
		t.Error("min-image violation accepted")
	}
	// Small box: brute-force fallback still correct.
	small := box.MustNew(vec.Zero, vec.Splat(4.2))
	spos := randomPositions(40, small, 5)
	got, err := (Builder{Cutoff: 2, Half: true}).BuildParallel(small, spos, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (Builder{Cutoff: 2, Half: true}).BuildBruteForce(small, spos)
	if got.Pairs() != want.Pairs() {
		t.Error("small-box fallback differs")
	}
}

// sameCSR fails unless got and want hold byte-identical CSR arrays.
func sameCSR(t *testing.T, name string, got, want *List) {
	t.Helper()
	if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Neigh, want.Neigh) {
		t.Fatalf("%s: CSR differs from the oracle (%d vs %d pairs)", name, got.Pairs(), want.Pairs())
	}
	if got.Half != want.Half || got.Cutoff != want.Cutoff || got.Skin != want.Skin {
		t.Fatalf("%s: build parameters differ", name)
	}
}

// buildsAtEveryWorkerCount runs Build and BuildParallel on 1–4 workers.
func buildsAtEveryWorkerCount(t *testing.T, b Builder, bx box.Box, pos []vec.Vec3, check func(name string, l *List)) {
	t.Helper()
	l, err := b.Build(bx, pos)
	if err != nil {
		t.Fatal(err)
	}
	check("Build", l)
	for w := 1; w <= 4; w++ {
		l, err := b.BuildParallel(bx, pos, fakePool{threads: w})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("BuildParallel/%d", w), l)
	}
}

// TestBuildMatchesBruteForceCSR pins the builder's output to the O(N²)
// oracle byte for byte on wrapped inputs, at every worker count.
func TestBuildMatchesBruteForceCSR(t *testing.T) {
	lat := lattice.MustBuild(lattice.BCC, 6, 6, 6, 2.8665)
	lat.Jitter(0.2, 3)

	// An open-x slab shaped like a hybrid rank's local box: owned atoms
	// in [0, 12), ghosts a reach beyond each face, a few past Lo/Hi.
	const reach = 4.0
	slab := box.MustNew(vec.New(-reach-1e-9, 0, 0), vec.New(12+reach+1e-9, 14, 14))
	slab.Periodic = [3]bool{false, true, true}
	rng := rand.New(rand.NewSource(8))
	var slabPos []vec.Vec3
	for i := 0; i < 500; i++ {
		slabPos = append(slabPos, vec.New(rng.Float64()*(12+2*reach)-reach, rng.Float64()*14, rng.Float64()*14))
	}
	for _, x := range []float64{-reach - 0.3, -reach - 2, 12 + reach + 0.3, 12 + reach + 2} {
		slabPos = append(slabPos, vec.New(x, rng.Float64()*14, rng.Float64()*14))
	}

	small := box.MustNew(vec.Zero, vec.Splat(4.2))
	big := box.MustNew(vec.Zero, vec.Splat(12))
	cases := []struct {
		name string
		bx   box.Box
		pos  []vec.Vec3
		b    Builder
	}{
		{"periodic-lattice", lat.Box, lat.Pos, Builder{Cutoff: 3.5, Skin: 0.5}},
		{"open-x-slab", slab, slabPos, Builder{Cutoff: 3.5, Skin: 0.5}},
		{"small-grid-fallback", small, randomPositions(60, small, 19), Builder{Cutoff: 2}},
		{"empty", big, nil, Builder{Cutoff: 2}},
		{"fewer-atoms-than-workers", big, randomPositions(3, big, 4), Builder{Cutoff: 2.5}},
		{"touching-fewer-atoms-than-workers", big, []vec.Vec3{{1, 1, 1}, {11.5, 1, 1}, {1, 2, 1}}, Builder{Cutoff: 2.5}},
	}
	for _, c := range cases {
		for _, half := range []bool{true, false} {
			b := c.b
			b.Half = half
			want, err := b.BuildBruteForce(c.bx, c.pos)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "periodic-lattice" && want.Pairs() == 0 {
				t.Fatal("test needs pairs")
			}
			buildsAtEveryWorkerCount(t, b, c.bx, c.pos, func(name string, got *List) {
				sameCSR(t, fmt.Sprintf("%s half=%v %s", c.name, half, name), got, want)
			})
		}
	}
}

// TestBuildUnwrappedKeepsMinimumImage: positions just outside the
// primary cell (and whole images away) find the same pairs as the
// oracle's minimum image, with one CSR at every worker count.
func TestBuildUnwrappedKeepsMinimumImage(t *testing.T) {
	lat := lattice.MustBuild(lattice.BCC, 6, 6, 6, 2.8665)
	lat.Jitter(0.2, 5)
	l := lat.Box.Lengths()
	rng := rand.New(rand.NewSource(6))
	pos := append([]vec.Vec3(nil), lat.Pos...)
	for i := range pos {
		switch rng.Intn(4) {
		case 0:
			d := rng.Intn(3)
			pos[i][d] += float64(rng.Intn(3)-1) * l[d]
		case 1:
			d := rng.Intn(3)
			if pos[i][d] < 0.5 {
				pos[i][d] -= 1e-3 // just below Lo
			}
		}
	}
	b := Builder{Cutoff: 3.5, Skin: 0.5, Half: true}
	want, err := b.BuildBruteForce(lat.Box, pos)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := b.Build(lat.Box, pos)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	ws, rs := want.PairSet(), ref.PairSet()
	if len(ws) != len(rs) {
		t.Fatalf("%d pairs vs %d from the oracle", len(rs), len(ws))
	}
	for p := range ws {
		if _, ok := rs[p]; !ok {
			t.Fatalf("missing pair %v", p)
		}
	}
	buildsAtEveryWorkerCount(t, b, lat.Box, pos, func(name string, got *List) {
		sameCSR(t, name, got, ref)
	})
}
