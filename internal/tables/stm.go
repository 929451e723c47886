package tables

import (
	"sync"
	"sync/atomic"
)

// This file implements the synchronization alternatives that the paper
// micro-benchmarks against MCFI's custom transactions (§8.1, "Evaluating
// MCFI's transaction algorithm"):
//
//	MCFI   — the fused-word speculative scheme in Tables.Check
//	TML    — Transactional Mutex Locks [6]: a global sequence lock read
//	         before and after the data reads
//	RWL    — a readers/writer lock
//	Mutex  — a compare-and-swap spinlock
//
// All four run over the same table layout so the benchmark isolates the
// synchronization cost. The paper reports normalized check costs of
// 1 : 2 : 29 : 22 (MCFI : TML : RWL : Mutex).

// Checker is a synchronization strategy for check/update transactions
// over a Tables instance.
type Checker interface {
	// Name identifies the strategy in benchmark output.
	Name() string
	// Check decides whether the indirect branch with the given Bary
	// index may transfer to target.
	Check(baryIndex, target int) Verdict
	// Reversion performs an ECN-preserving table re-version (the
	// Fig. 6 update workload) under this strategy's write protocol.
	Reversion()
}

// MCFIChecker adapts Tables' native transactions to the Checker
// interface.
type MCFIChecker struct{ T *Tables }

// Name implements Checker.
func (c *MCFIChecker) Name() string { return "MCFI" }

// Check implements Checker using the fused-word transaction.
func (c *MCFIChecker) Check(baryIndex, target int) Verdict {
	return c.T.Check(baryIndex, target)
}

// Reversion implements Checker.
func (c *MCFIChecker) Reversion() { c.T.Reversion(UpdateOpts{}) }

// TMLChecker implements Transactional Mutex Locks: writers increment a
// global sequence counter to odd on entry and even on exit; readers
// sample the counter before and after their reads and retry on any
// change. Unlike MCFI's scheme it needs two extra shared-counter loads
// per check — the paper measured this at ~2x MCFI's cost.
type TMLChecker struct {
	T   *Tables
	seq atomic.Uint64
}

// Name implements Checker.
func (c *TMLChecker) Name() string { return "TML" }

// Check implements Checker with a seqlock read protocol.
func (c *TMLChecker) Check(baryIndex, target int) Verdict {
	for {
		s1 := c.seq.Load()
		if s1&1 == 1 {
			continue // writer active
		}
		bid := c.T.BaryID(baryIndex)
		tid := c.T.TaryID(target)
		if c.seq.Load() != s1 {
			continue // raced with a writer; retry
		}
		// With TML the version field is redundant (the seqlock already
		// serialized us against writers) but we keep the same ID layout.
		if bid == tid {
			return Pass
		}
		if !tid.LowBitSet() || bid.ECN() != tid.ECN() {
			return Violation
		}
		return Pass
	}
}

// Reversion implements Checker.
func (c *TMLChecker) Reversion() {
	c.seq.Add(1) // odd: writer in progress
	c.T.Reversion(UpdateOpts{})
	c.seq.Add(1) // even: done
}

// RWLChecker wraps every check in a readers/writer lock. Acquiring
// even the read side is a shared-memory RMW, which is why the paper
// measures it an order of magnitude slower under read-heavy load.
type RWLChecker struct {
	T  *Tables
	mu sync.RWMutex
}

// Name implements Checker.
func (c *RWLChecker) Name() string { return "RWL" }

// Check implements Checker under the read lock.
func (c *RWLChecker) Check(baryIndex, target int) Verdict {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bid := c.T.BaryID(baryIndex)
	tid := c.T.TaryID(target)
	if bid == tid {
		return Pass
	}
	if !tid.LowBitSet() || bid.ECN() != tid.ECN() {
		return Violation
	}
	return Pass
}

// Reversion implements Checker under the write lock.
func (c *RWLChecker) Reversion() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.T.Reversion(UpdateOpts{})
}

// MutexChecker serializes checks and updates with a compare-and-swap
// spinlock (the paper's "mutex implemented by atomic Compare-And-Swap").
type MutexChecker struct {
	T    *Tables
	lock atomic.Uint32
}

// Name implements Checker.
func (c *MutexChecker) Name() string { return "Mutex" }

func (c *MutexChecker) acquire() {
	for !c.lock.CompareAndSwap(0, 1) {
	}
}

func (c *MutexChecker) release() { c.lock.Store(0) }

// Check implements Checker under the spinlock.
func (c *MutexChecker) Check(baryIndex, target int) Verdict {
	c.acquire()
	bid := c.T.BaryID(baryIndex)
	tid := c.T.TaryID(target)
	c.release()
	if bid == tid {
		return Pass
	}
	if !tid.LowBitSet() || bid.ECN() != tid.ECN() {
		return Violation
	}
	return Pass
}

// Reversion implements Checker under the spinlock.
func (c *MutexChecker) Reversion() {
	c.acquire()
	defer c.release()
	c.T.Reversion(UpdateOpts{})
}

// NewCheckers returns one checker of each strategy over fresh tables
// initialized identically by init — convenience for the §8.1
// micro-benchmark and its tests.
func NewCheckers(codeLimit, maxBranches int, init func(*Tables)) []Checker {
	mk := func() *Tables {
		t := New(make([]uint32, (codeLimit+3)/4+maxBranches), codeLimit, nil)
		init(t)
		return t
	}
	return []Checker{
		&MCFIChecker{T: mk()},
		&TMLChecker{T: mk()},
		&RWLChecker{T: mk()},
		&MutexChecker{T: mk()},
	}
}
