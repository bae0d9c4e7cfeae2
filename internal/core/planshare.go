package core

import "sync"

// PlanShare is the epoch-keyed exchange of plan-scoped caches: idle
// PlanCaches, keyed by the ItemIndex (one pinned step prefix — one epoch of
// one run) they were built against, handed from one query session to the
// next. Each engine worker holds one PlanCache, so a worker's share of a
// batch amortizes edge matrices, chain products and visibility rows; the
// share extends the amortization across batches and across sessions — the
// second batch at the same epoch starts with every edge matrix and chain
// product the first one paid for.
//
// A PlanCache itself stays confined to one QuerySession (its maps are
// unlocked); the share never lets two sessions hold the same cache at once.
// Acquire transfers ownership out of the share, Release transfers it back —
// the locking lives here, at the handoff, not on the query path.
//
// Caches are keyed by ItemIndex identity, not epoch number: node IDs and
// item rows cached by a plan are only meaningful against the exact index
// that minted them, and two runs at the same epoch number are different
// universes. Index-free caches (edge matrices and recursion chains only —
// neither depends on the item universe) share under the nil key. The zero value is ready to use.
type PlanShare struct {
	mu sync.Mutex

	// idle holds the caches currently owned by the share, per index. The
	// nil key pools index-free caches.
	idle map[*ItemIndex][]*PlanCache

	// order tracks the distinct non-nil indexes, oldest first, so the share
	// forgets stale epochs instead of growing with every producer step.
	order []*ItemIndex
}

// maxShareIndexes bounds how many distinct item indexes (epochs) the share
// retains caches for. Live serving touches one index per published epoch;
// retaining a few tolerates queries racing a producer without keeping every
// historical epoch's caches alive.
const maxShareIndexes = 4

// maxIdlePerIndex bounds the idle caches retained per index. One engine
// batch parks at most one cache per worker; the bound only stops a pile-up
// when far more sessions release than ever acquire.
const maxIdlePerIndex = 16

// Acquire hands out a cache keyed to idx: an idle one if the share has one
// (warm — it keeps everything its previous sessions computed), a fresh one
// otherwise. The caller owns the cache until Release.
func (ps *PlanShare) Acquire(idx *ItemIndex) *PlanCache {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if pcs := ps.idle[idx]; len(pcs) > 0 {
		pc := pcs[len(pcs)-1]
		ps.idle[idx] = pcs[:len(pcs)-1]
		return pc
	}
	ps.admit(idx)
	return newPlanCache(idx)
}

// Release returns a cache to the share for the next session at its index.
// Caches keyed to an index the share has already forgotten (or evicts now)
// are dropped; releasing nil is a no-op, so callers can release whatever a
// session detached without inspecting it.
func (ps *PlanShare) Release(pc *PlanCache) {
	if pc == nil {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if pc.idx != nil && !ps.tracked(pc.idx) {
		// The index was evicted while the cache was out — its epoch is
		// stale, don't resurrect it.
		return
	}
	if len(ps.idle[pc.idx]) >= maxIdlePerIndex {
		return
	}
	if ps.idle == nil {
		ps.idle = map[*ItemIndex][]*PlanCache{}
	}
	ps.idle[pc.idx] = append(ps.idle[pc.idx], pc)
}

// admit records a (possibly new) index, evicting the oldest index — and its
// idle caches — once more than maxShareIndexes are tracked. The nil key is
// never evicted: index-free edge matrices stay valid forever.
func (ps *PlanShare) admit(idx *ItemIndex) {
	if idx == nil || ps.tracked(idx) {
		return
	}
	ps.order = append(ps.order, idx)
	if len(ps.order) > maxShareIndexes {
		old := ps.order[0]
		ps.order = ps.order[1:]
		delete(ps.idle, old)
	}
}

func (ps *PlanShare) tracked(idx *ItemIndex) bool {
	for _, t := range ps.order {
		if t == idx {
			return true
		}
	}
	return false
}

// IdleCaches reports how many caches the share currently holds for idx —
// an observability probe for tests and metrics, not a scheduling input.
func (ps *PlanShare) IdleCaches(idx *ItemIndex) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.idle[idx])
}
