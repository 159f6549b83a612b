package core

import (
	"math"
	"math/rand"

	"owan/internal/topology"
)

// This file holds the replica-exchange (parallel tempering) side of the
// annealing loop in owan.go: the rungs, their RNG streams and the exchange
// sweep. R chains run side by side at a geometric temperature ladder — rung 0
// is the coldest, at the normal schedule temperature, rung r at
// temperLadderStep^r times that — and every exchangeInterval rounds neighbor
// rungs propose to swap their current states under the Metropolis criterion
// on (ΔE, Δβ). Hot rungs cross energy barriers the cold rung cannot;
// exchanges funnel their discoveries down. At R = 1 there is one rung and no
// exchange, and the loop is the paper's single chain.
//
// Determinism discipline, extending the (Seed, BatchSize) contract of
// parallel.go to (Seed, BatchSize, Replicas): every RNG draw happens on the
// coordinating goroutine. Rung 0 draws from the controller RNG, the stream
// the single chain has always used, so R = 1 walks that chain draw for draw.
// Rung r ≥ 1 owns a private RNG derived from (Config.Seed, the controller's
// slot sequence number, r), and exchange decisions draw from a separate
// stream derived the same way. Each rung draws for its own generation and
// acceptance, in rung order. Workers only ever compute energies — pure
// functions of (topology, demands) — so Workers/GOMAXPROCS change wall-clock
// time, never the result. The energy and provision caches apply to every
// rung alike, since both are keyed by topology alone.

// rung is one chain of the ladder: its RNG, its current state, its cooling
// schedule, how many iterations it has run, and how many candidates it
// generated in the current round.
type rung struct {
	rng   *rand.Rand
	sCur  *topology.LinkSet
	eCur  float64
	T     float64
	iters int
	n     int
}

// mixSeed derives an independent, reproducible RNG seed from the controller
// seed, the slot sequence number, and a stream index (rung index r ≥ 1, or
// -1 for the exchange stream; rung 0 uses the controller RNG instead) via a
// splitmix64-style finalizer. Plain addition would make stream k of seed s
// collide with stream k+1 of seed s-1.
func mixSeed(seed, slotSeq int64, stream int) int64 {
	z := uint64(seed)
	z ^= (uint64(slotSeq) + 1) * 0x9e3779b97f4a7c15
	z ^= (uint64(int64(stream)) + 0x632be59bd9b4e019) * 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// newRungs builds the ladder for one search: Config.Replicas rungs starting
// from (sInit, eInit), rung r at temperature T scaled by temperLadderStep^r.
func (o *Owan) newRungs(sInit *topology.LinkSet, eInit, T float64) []rung {
	rungs := make([]rung, o.cfg.Replicas)
	for r := range rungs {
		scale := math.Pow(temperLadderStep, float64(r))
		rng := o.rng
		if r > 0 {
			rng = rand.New(rand.NewSource(mixSeed(o.cfg.Seed, o.slotSeq, r)))
		}
		rungs[r] = rung{rng: rng, sCur: sInit, eCur: eInit, T: T * scale}
	}
	return rungs
}

// held reports whether some rung holds s as its current state.
func held(rungs []rung, s *topology.LinkSet) bool {
	for r := range rungs {
		if rungs[r].sCur == s {
			return true
		}
	}
	return false
}

// exchange runs one sweep over neighbor-rung pairs, starting at parity par
// and alternating between sweeps so a state can ladder all the way down. One
// exchange-RNG draw per attempt, accepted or not, keeps the stream's
// consumption independent of the energies. With one rung there is no pair,
// so the sweep draws nothing.
func exchange(rungs []rung, rng *rand.Rand, par int, stats *SearchStats) {
	for i := par; i+1 < len(rungs); i += 2 {
		a, b := &rungs[i], &rungs[i+1] // a is the colder rung
		stats.ExchangeAttempts++
		// Joint-weight ratio for swapping states between inverse
		// temperatures βa > βb when energy is maximized (cost −E):
		// accept with min(1, exp((βa−βb)(Eb−Ea))) — a hotter rung
		// holding the higher energy always hands it down.
		dBeta := 1/a.T - 1/b.T
		p := math.Exp(dBeta * (b.eCur - a.eCur))
		if rng.Float64() < p {
			a.sCur, b.sCur = b.sCur, a.sCur
			a.eCur, b.eCur = b.eCur, a.eCur
			stats.Exchanges++
		}
	}
}
