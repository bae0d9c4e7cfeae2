package core

import (
	"fmt"

	"repro/internal/run"
)

// FrontierPaths returns the parse-tree paths of the run's unexpanded
// composite module instances — exactly the labeler state a future derivation
// step can read. OnStep consults instPath only for the instance it expands
// (always an unexpanded composite) and writes fresh paths for the children it
// creates, so persisting the frontier paths alongside the assigned labels is
// sufficient to continue labeling a restored run without relabeling it.
func (l *RunLabeler) FrontierPaths(r *run.Run) (map[int][]EdgeLabel, error) {
	out := map[int][]EdgeLabel{}
	for _, id := range r.Frontier() {
		path, ok := l.instPath[id]
		if !ok {
			return nil, fmt.Errorf("core: frontier instance %d was never placed in the parse tree", id)
		}
		// Paths may be nil for the root of a non-recursive start module;
		// normalize so callers can encode them uniformly.
		if path == nil {
			path = []EdgeLabel{}
		}
		out[id] = append([]EdgeLabel(nil), path...)
	}
	return out, nil
}

// RestoreRunLabeler rebuilds a labeler from persisted state: the labels
// assigned to the first len(labels) data items and the parse-tree paths of
// the unexpanded frontier instances (see FrontierPaths). Labels must be
// contiguous from item ID 1 — the invariant the live session publishes by.
// The inputs are expected to have passed the codec's strict decoders already
// (labelstore decodes both through Codec.Decode/DecodePath); this constructor
// only re-checks the cheap structural facts.
func (s *Scheme) RestoreRunLabeler(labels []*DataLabel, paths map[int][]EdgeLabel) (*RunLabeler, error) {
	l := s.NewRunLabeler()
	for i, d := range labels {
		if d == nil {
			return nil, fmt.Errorf("core: restored label %d is nil", i+1)
		}
		l.labels[i+1] = d
	}
	for id, path := range paths {
		if id < 0 {
			return nil, fmt.Errorf("core: restored path for negative instance %d", id)
		}
		l.instPath[id] = append([]EdgeLabel(nil), path...)
	}
	return l, nil
}
