// Package lp implements a dense two-phase simplex linear-programming solver
// from scratch, sufficient for the path-formulation traffic-engineering LPs
// that Owan's baselines (MaxFlow, MaxMinFract, SWAN, Tempus) require.
//
// The solver maximizes c·x subject to linear constraints with senses
// <=, =, >= and x >= 0. Bland's anti-cycling rule guarantees termination;
// the tableaus involved in TE problems are small enough (hundreds of rows,
// a few thousand columns) that a dense tableau is the simplest robust
// choice given the constraint that this module uses the standard library
// only.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relation of a constraint row to its right-hand side.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is a single linear constraint. Coeffs is sparse: only nonzero
// coefficients need to be present.
type Constraint struct {
	Coeffs map[int]float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program: maximize Objective·x subject to Constraints,
// with all variables nonnegative.
type Problem struct {
	nvars       int
	objective   []float64
	constraints []Constraint
}

// NewProblem creates a problem with n nonnegative variables and a zero
// objective.
func NewProblem(n int) *Problem {
	return &Problem{nvars: n, objective: make([]float64, n)}
}

// SetObjective sets the coefficient of variable v in the (maximized)
// objective.
func (p *Problem) SetObjective(v int, c float64) {
	p.objective[v] = c
}

// AddConstraint appends a constraint row. The coefficient map is copied.
func (p *Problem) AddConstraint(coeffs map[int]float64, sense Sense, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for k, v := range coeffs {
		if k < 0 || k >= p.nvars {
			panic(fmt.Sprintf("lp: variable %d out of range (n=%d)", k, p.nvars))
		}
		if v != 0 {
			cp[k] = v
		}
	}
	p.constraints = append(p.constraints, Constraint{Coeffs: cp, Sense: sense, RHS: rhs})
}

// Status describes the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution holds the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
}

// ErrIterationLimit is returned if the simplex fails to terminate within the
// safety iteration budget. With Bland's rule this indicates a bug or a
// pathologically large instance rather than cycling.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const eps = 1e-9

// Solve runs two-phase simplex and returns the solution. An error is only
// returned for internal failures (iteration limit); infeasibility and
// unboundedness are reported via Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.constraints)
	n := p.nvars

	// Count auxiliary columns. Every row gets either a slack (LE), a
	// surplus+artificial (GE), or an artificial (EQ). Rows with negative RHS
	// are normalized first (multiply by -1, flipping the sense).
	type rowSpec struct {
		coeffs map[int]float64
		sense  Sense
		rhs    float64
	}
	rows := make([]rowSpec, m)
	for i, c := range p.constraints {
		r := rowSpec{coeffs: c.Coeffs, sense: c.Sense, rhs: c.RHS}
		if r.rhs < 0 {
			neg := make(map[int]float64, len(r.coeffs))
			for k, v := range r.coeffs {
				neg[k] = -v
			}
			r.coeffs = neg
			r.rhs = -r.rhs
			switch r.sense {
			case LE:
				r.sense = GE
			case GE:
				r.sense = LE
			}
		}
		rows[i] = r
	}

	nSlack, nArt := 0, 0
	for _, r := range rows {
		switch r.sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := n + nSlack + nArt
	// tab has m rows of total+1 columns (last is RHS).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackIdx, artIdx := n, n+nSlack
	artCols := make([]int, 0, nArt)
	for i, r := range rows {
		row := make([]float64, total+1)
		for k, v := range r.coeffs {
			row[k] = v
		}
		row[total] = r.rhs
		switch r.sense {
		case LE:
			row[slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		case EQ:
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		}
		tab[i] = row
	}

	maxIter := 200 * (m + total + 10)

	if nArt > 0 {
		// Phase 1: minimize sum of artificials == maximize -sum.
		obj := make([]float64, total)
		for _, a := range artCols {
			obj[a] = -1
		}
		status, iters := simplex(tab, basis, obj, maxIter)
		if iters >= maxIter {
			return nil, ErrIterationLimit
		}
		_ = status // phase 1 is always bounded (objective <= 0)
		sum := 0.0
		for i, b := range basis {
			for _, a := range artCols {
				if b == a {
					sum += tab[i][total]
				}
			}
		}
		if sum > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		isArt := make(map[int]bool, len(artCols))
		for _, a := range artCols {
			isArt[a] = true
		}
		for i := 0; i < m; i++ {
			if !isArt[basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: the artificial stays basic at value 0,
				// harmless as long as its column is zeroed for phase 2.
				continue
			}
		}
		// Zero out artificial columns so they can never re-enter.
		for _, a := range artCols {
			for i := 0; i < m; i++ {
				tab[i][a] = 0
			}
		}
	}

	// Phase 2: maximize the real objective.
	obj := make([]float64, total)
	copy(obj, p.objective)
	status, iters := simplex(tab, basis, obj, maxIter)
	if iters >= maxIter {
		return nil, ErrIterationLimit
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.objective[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: objVal, X: x}, nil
}

// simplex runs primal simplex iterations on the tableau with the given
// objective. A reduced-cost row is computed once from the basis and then
// maintained incrementally across pivots, which keeps each iteration at
// O(m×width) for the pivot plus an O(width) scan. Bland's rule picks the
// lowest-index entering and leaving candidates, guaranteeing termination.
func simplex(tab [][]float64, basis []int, obj []float64, maxIter int) (Status, int) {
	m := len(tab)
	if m == 0 {
		return Optimal, 0
	}
	total := len(tab[0]) - 1
	// rc[j] = obj_j - sum_i obj[basis[i]] * tab[i][j]; rc[total] tracks -z.
	rc := make([]float64, total+1)
	copy(rc, obj)
	for i := 0; i < m; i++ {
		ob := obj[basis[i]]
		if ob == 0 {
			continue
		}
		ri := tab[i]
		for j := 0; j <= total; j++ {
			rc[j] -= ob * ri[j]
		}
	}
	iters := 0
	degenerateStreak := 0
	for ; iters < maxIter; iters++ {
		// Entering column: Dantzig's rule (largest reduced cost) normally,
		// falling back to Bland's rule (lowest index) after a long run of
		// degenerate pivots to guarantee termination.
		bland := degenerateStreak > 2*(m+8)
		enter := -1
		best := eps
		for j := 0; j < total; j++ {
			if rc[j] > best {
				enter = j
				if bland {
					break
				}
				best = rc[j]
			}
		}
		if enter < 0 {
			return Optimal, iters
		}
		// Ratio test with Bland tie-break on basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a <= eps {
				continue
			}
			ratio := tab[i][total] / a
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, iters
		}
		if bestRatio < eps {
			degenerateStreak++
		} else {
			degenerateStreak = 0
		}
		pivot(tab, basis, leave, enter)
		// Update the reduced-cost row against the (now normalized) pivot row.
		f := rc[enter]
		if f != 0 {
			rr := tab[leave]
			for j := 0; j <= total; j++ {
				rc[j] -= f * rr[j]
			}
			rc[enter] = 0
		}
	}
	return Optimal, iters
}

// pivot performs a Gauss-Jordan pivot on tab[row][col] and updates the basis.
func pivot(tab [][]float64, basis []int, row, col int) {
	m := len(tab)
	width := len(tab[row])
	pv := tab[row][col]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		tab[row][j] *= inv
	}
	tab[row][col] = 1 // exact
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		ri, rr := tab[i], tab[row]
		for j := 0; j < width; j++ {
			ri[j] -= f * rr[j]
		}
		ri[col] = 0 // exact
	}
	basis[row] = col
}
