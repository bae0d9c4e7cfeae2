// Package live impersonates repro/internal/live for the pubatomic fixture:
// a producer session publishing an immutable prefix to lock-free readers.
package live

import "sync/atomic"

// Prefix is published through atomic.Pointer fields below, so the analyzer
// treats it as frozen.
type Prefix struct {
	epoch  int
	labels []int
	index  map[int]int
}

// Session is the single producer; labels and index are its mutable state.
type Session struct {
	cur    atomic.Pointer[Prefix]
	bad    atomic.Pointer[Prefix]
	raw    atomic.Pointer[Prefix]
	labels []int
	index  map[int]int
}

// publish is the one sanctioned store site of cur: capacity-capped slice,
// no maps, one function.
func (s *Session) publish(n int) {
	s.cur.Store(&Prefix{epoch: n, labels: s.labels[:n:n]})
}

func (s *Session) storeOne(n int) {
	s.bad.Store(&Prefix{epoch: n, labels: s.labels[:n]}) // want `atomic field bad is stored from 2 functions` `published slice s\.labels\[\.\.\.\] is not capacity-capped`
}

func (s *Session) storeTwo(p *Prefix) {
	s.bad.Store(p) // want `atomic field bad is stored from 2 functions`
}

func (s *Session) storeRaw(n int) {
	s.raw.Store(&Prefix{epoch: n, labels: s.labels, index: s.index}) // want `published slice s\.labels aliases producer state by reference` `published map s\.index aliases producer state`
}

func (s *Session) patch(p *Prefix) {
	p.epoch++ // want `write to Prefix, a type published through an atomic\.Pointer`
}

func (s *Session) overwrite(p *Prefix) {
	*p = Prefix{}            // want `write to Prefix, a type published through an atomic\.Pointer`
	copy(p.labels, s.labels) // want `write to Prefix, a type published through an atomic\.Pointer`
}

// newPrefix builds the value before it escapes to a Store, the reviewed
// builder exception.
//
//fvlvet:prepublish
func newPrefix(n int) *Prefix {
	p := &Prefix{}
	p.epoch = n
	return p
}
