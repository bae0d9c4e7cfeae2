package fvl

// SessionIndexedAt reports whether the session's cached item index is the
// one of the given epoch, i.e. whether a point batch pinned at that epoch
// resolves its items through the index.
func SessionIndexedAt(s *Session, epoch uint64) bool { return s.idx.at(epoch) != nil }
