// Package neighbor builds the Verlet neighbor lists at the heart of the
// paper's force loops (the CSR arrays neighindex[], neighlen[],
// neighlist[] of Figs. 1/2/7/8), via a linked-cell grid so construction
// is O(N) instead of O(N²). A brute-force builder with identical
// semantics serves as the correctness oracle.
package neighbor

import (
	"fmt"

	"sdcmd/internal/box"
	"sdcmd/internal/vec"
)

// CellGrid bins atoms into cubic-ish cells at least `minCell` wide so
// all neighbors within the interaction range lie in the 27 surrounding
// cells. Atom membership is stored CSR-style (counting sort), which the
// reorder package also uses to derive its locality permutation.
type CellGrid struct {
	// Box is the periodic cell the grid tiles.
	Box box.Box
	// Dims is the number of cells along each axis (>= 1).
	Dims [3]int
	// MinCell is the requested minimum cell edge (usually rc + skin).
	MinCell float64

	// Start[c] .. Start[c+1] index Atoms for cell c (CSR).
	Start []int32
	// Atoms holds atom indices grouped by cell.
	Atoms []int32
	// cell[i] is the flat cell index of atom i.
	cell []int32
}

// NewCellGrid chooses the densest grid whose cells are at least minCell
// wide and bins pos into it. A degenerate request (minCell <= 0) is an
// error; an axis shorter than minCell simply gets one cell.
func NewCellGrid(bx box.Box, pos []vec.Vec3, minCell float64) (*CellGrid, error) {
	if !(minCell > 0) {
		return nil, fmt.Errorf("neighbor: minimum cell edge %g must be positive", minCell)
	}
	g := &CellGrid{Box: bx, MinCell: minCell}
	l := bx.Lengths()
	for d := 0; d < 3; d++ {
		n := int(l[d] / minCell)
		if n < 1 {
			n = 1
		}
		g.Dims[d] = n
	}
	g.rebin(pos)
	return g, nil
}

// NumCells returns the total cell count.
func (g *CellGrid) NumCells() int { return g.Dims[0] * g.Dims[1] * g.Dims[2] }

// rebin performs the counting sort of atoms into cells.
func (g *CellGrid) rebin(pos []vec.Vec3) {
	nc := g.NumCells()
	if cap(g.Start) >= nc+1 {
		g.Start = g.Start[:nc+1]
		for i := range g.Start {
			g.Start[i] = 0
		}
	} else {
		g.Start = make([]int32, nc+1)
	}
	if cap(g.Atoms) >= len(pos) {
		g.Atoms = g.Atoms[:len(pos)]
	} else {
		g.Atoms = make([]int32, len(pos))
	}
	if cap(g.cell) >= len(pos) {
		g.cell = g.cell[:len(pos)]
	} else {
		g.cell = make([]int32, len(pos))
	}

	for i, p := range pos {
		c := g.CellIndexOf(p)
		g.cell[i] = int32(c)
		g.Start[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.Start[c+1] += g.Start[c]
	}
	cursor := make([]int32, nc)
	copy(cursor, g.Start[:nc])
	for i := range pos {
		c := g.cell[i]
		g.Atoms[cursor[c]] = int32(i)
		cursor[c]++
	}
}

// CellCoords returns the integer cell coordinates of a (wrapped or
// unwrapped) position, clamped into range.
func (g *CellGrid) CellCoords(p vec.Vec3) [3]int {
	p = g.Box.Wrap(p)
	f := g.Box.FracCoord(p)
	var c [3]int
	for d := 0; d < 3; d++ {
		c[d] = int(f[d] * float64(g.Dims[d]))
		if c[d] >= g.Dims[d] { // f == 1-eps rounding
			c[d] = g.Dims[d] - 1
		}
		if c[d] < 0 {
			c[d] = 0
		}
	}
	return c
}

// CellIndexOf returns the flat cell index of position p.
func (g *CellGrid) CellIndexOf(p vec.Vec3) int {
	c := g.CellCoords(p)
	return g.Flatten(c)
}

// Flatten converts cell coordinates to the flat index (x-major).
func (g *CellGrid) Flatten(c [3]int) int {
	return (c[0]*g.Dims[1]+c[1])*g.Dims[2] + c[2]
}

// Unflatten is the inverse of Flatten.
func (g *CellGrid) Unflatten(idx int) [3]int {
	z := idx % g.Dims[2]
	idx /= g.Dims[2]
	y := idx % g.Dims[1]
	x := idx / g.Dims[1]
	return [3]int{x, y, z}
}

// CellAtoms returns the atoms binned into flat cell c.
func (g *CellGrid) CellAtoms(c int) []int32 {
	return g.Atoms[g.Start[c]:g.Start[c+1]]
}

// CellOfAtom returns the flat cell index atom i was binned into.
func (g *CellGrid) CellOfAtom(i int) int { return int(g.cell[i]) }

// stencilRun is one entry of a cell's search stencil: neighbor cells
// first..last, consecutive along z and so one contiguous run of the
// grid's atoms, and the periodic image shift (±L or 0 per axis) that
// carries them next to the center cell.
type stencilRun struct {
	first, last int
	shift       vec.Vec3
}

// appendStencil appends the search stencil of flat cell c to dst: the
// 3×3×3 neighborhood, wrapped on periodic axes (a wrapped cell carries
// its image shift) and clipped on open axes, with the z neighbors of
// equal shift merged into one run. Every axis must have at least 3
// cells so no cell appears twice; smaller grids take the brute-force
// path instead.
func (g *CellGrid) appendStencil(dst []stencilRun, c int) []stencilRun {
	cc := g.Unflatten(c)
	l := g.Box.Lengths()
	var idx [3][3]int // neighbor coordinates per axis; on z, each run's first
	var img [3][3]int // image offset in box lengths: -1, 0 or +1
	var zlast [3]int  // last z coordinate of each run
	var n [3]int
	for d := 0; d < 3; d++ {
		for k := cc[d] - 1; k <= cc[d]+1; k++ {
			at, m := k, 0
			switch {
			case k >= 0 && k < g.Dims[d]:
			case !g.Box.Periodic[d]:
				continue
			case k < 0:
				at, m = k+g.Dims[d], -1
			default:
				at, m = k-g.Dims[d], 1
			}
			if d == 2 {
				if n[2] > 0 && img[2][n[2]-1] == m { // no wrap in between
					zlast[n[2]-1] = at
					continue
				}
				zlast[n[2]] = at
			}
			idx[d][n[d]], img[d][n[d]] = at, m
			n[d]++
		}
	}
	for a := 0; a < n[0]; a++ {
		for b := 0; b < n[1]; b++ {
			for e := 0; e < n[2]; e++ {
				dst = append(dst, stencilRun{
					first: g.Flatten([3]int{idx[0][a], idx[1][b], idx[2][e]}),
					last:  g.Flatten([3]int{idx[0][a], idx[1][b], zlast[e]}),
					shift: vec.Vec3{float64(img[0][a]) * l[0], float64(img[1][b]) * l[1], float64(img[2][e]) * l[2]},
				})
			}
		}
	}
	return dst
}
