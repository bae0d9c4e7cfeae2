package fvl

import "repro/internal/faults"

// The error taxonomy of the façade. Every failure the library reports wraps
// one of these sentinels when it falls into the corresponding class, so
// callers classify errors with errors.Is instead of string-matching:
//
//	results, err := svc.DependsOnBatch(ctx, "security", queries)
//	switch {
//	case errors.Is(err, fvl.ErrUnknownView):
//	    // the service has no label for that view name
//	case errors.Is(err, fvl.ErrCanceled):
//	    // the context was canceled; partial results may be present
//	}
//
// The values are shared with the internal packages (they wrap the same
// sentinels at the point of detection), so errors.Is works no matter how
// many layers of context the error picked up on the way out.
var (
	// ErrCanceled: an operation observed context cancellation and stopped
	// early — a batch query between claim blocks, a multi-view labeling
	// between views, a run labeling between derivation steps.
	ErrCanceled = faults.ErrCanceled

	// ErrUnknownView: a query named a view the service has no label for.
	ErrUnknownView = faults.ErrUnknownView

	// ErrForeignLabel: a run, view or label belongs to a different
	// specification than the one it is being combined with.
	ErrForeignLabel = faults.ErrForeignLabel

	// ErrCorruptSnapshot: a label snapshot failed validation (bad magic,
	// checksum mismatch, truncation, or any structural check on load).
	ErrCorruptSnapshot = faults.ErrCorruptSnapshot

	// ErrUnsafeView: the view admits no labeling because it is unsafe
	// (Definition 13 of the paper applied to the view specification).
	ErrUnsafeView = faults.ErrUnsafeView

	// ErrNotLinearRecursive: the grammar is not strictly linear-recursive,
	// so the compact labeling scheme does not apply (Theorem 6). NewLabeler
	// and Open answer it by building the basic Theorem-1 scheme instead
	// (see Labeler.IsBasic), so it reaches callers only from layers that
	// insist on the compact scheme.
	ErrNotLinearRecursive = faults.ErrNotLinearRecursive

	// ErrHiddenItem: a query involved a data item the view hides.
	ErrHiddenItem = faults.ErrHiddenItem

	// ErrUnknownItem: a live-session query named a data item ID with no
	// label at the answering step prefix — the ID is unknown, or the item
	// had not yet been produced when the batch pinned its prefix.
	ErrUnknownItem = faults.ErrUnknownItem

	// ErrCorruptJournal: a step journal failed validation (bad magic, a
	// truncated or non-canonical varint, or an out-of-range value).
	ErrCorruptJournal = faults.ErrCorruptJournal

	// ErrTornJournal: a step journal ends mid-record — the signature of a
	// crash during an append. Torn journals also match ErrCorruptJournal;
	// ResumeDurable truncates a torn tail of the last segment and refuses
	// one anywhere else.
	ErrTornJournal = faults.ErrTornJournal

	// ErrCorruptManifest: a durable session directory's MANIFEST failed
	// validation, so the directory cannot be interpreted at all.
	ErrCorruptManifest = faults.ErrCorruptManifest

	// ErrCorruptCheckpoint: the checkpoint a durable session's manifest
	// names is missing or failed a structural check on load.
	ErrCorruptCheckpoint = faults.ErrCorruptCheckpoint

	// ErrInvalidStep: a journal record decoded cleanly but does not apply to
	// the specification on replay — the journal belongs to a different run
	// or was damaged without tripping the structural checks.
	ErrInvalidStep = faults.ErrInvalidStep

	// ErrInvalidQuery: a set-query expression failed to parse or compile —
	// a syntax error in the query text, a union/intersect over operands of
	// different result kinds, or a projection side outside {1, 2}.
	ErrInvalidQuery = faults.ErrInvalidQuery
)
