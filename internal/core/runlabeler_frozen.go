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
// sufficient to continue labeling a restored run without relabeling it. The
// returned paths alias the labeler's and must not be modified.
func (l *RunLabeler) FrontierPaths(r *run.Run) (map[int][]EdgeLabel, error) {
	frontier := r.Frontier()
	out := make(map[int][]EdgeLabel, len(frontier))
	for _, id := range frontier {
		path, err := l.path(id)
		if err != nil {
			return nil, err
		}
		out[id] = path
	}
	return out, nil
}

// RestoreRunLabeler rebuilds a labeler for the run r from persisted state:
// the labels of the run's data items, in item order, and the parse-tree
// paths of its unexpanded frontier instances (see FrontierPaths). The
// labeler takes ownership of both and continues labeling r from its last
// step. The inputs are expected to have passed the codec's strict decoders
// already (labelstore decodes both through Codec.Decode/DecodePath); this
// constructor only re-checks the cheap structural facts.
func (s *Scheme) RestoreRunLabeler(r *run.Run, labels []*DataLabel, paths map[int][]EdgeLabel) (*RunLabeler, error) {
	for i, d := range labels {
		if d == nil {
			return nil, fmt.Errorf("core: restored label %d is nil", i+1)
		}
	}
	l := &RunLabeler{scheme: s, labels: labels, instPath: make([][]EdgeLabel, len(r.Instances))}
	for id, path := range paths {
		if id < 0 || id >= len(l.instPath) {
			return nil, fmt.Errorf("core: restored path for instance %d of a run with %d instances", id, len(l.instPath))
		}
		// A fresh labeler keeps the root's empty path as nil; so does this
		// one, so port labels created at the root stay identical.
		if len(path) == 0 {
			path = nil
		}
		l.instPath[id] = path
	}
	return l, nil
}
