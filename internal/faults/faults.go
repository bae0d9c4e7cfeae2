// Package faults defines the sentinel errors of the system's typed error
// taxonomy. Internal packages wrap these sentinels into their error chains
// (with %w) at the point where the condition is detected, and the public fvl
// package re-exports the very same values, so callers can classify failures
// with errors.Is instead of string-matching — regardless of how many layers
// of context the error accumulated on the way up.
//
// The package is intentionally tiny and imports nothing: every layer of the
// system (core, engine, drl, labelstore, fvl) can depend on it without
// creating cycles.
package faults

import "errors"

var (
	// ErrCanceled reports that an operation observed context cancellation and
	// stopped early: a batch query between claim blocks, a multi-view
	// labeling between views, or a run labeling between derivation steps.
	ErrCanceled = errors.New("operation canceled")

	// ErrUnknownView reports a query against a view name the service has no
	// label for.
	ErrUnknownView = errors.New("unknown view")

	// ErrForeignLabel reports a mismatch of provenance artifacts: a run, view
	// or label that belongs to a different specification (or scheme) than the
	// one it is being combined with.
	ErrForeignLabel = errors.New("artifact belongs to a different specification")

	// ErrCorruptSnapshot reports that a label snapshot failed validation:
	// bad magic, checksum mismatch, truncated payload, or any of the
	// structural checks the loader performs on untrusted input.
	ErrCorruptSnapshot = errors.New("corrupt label snapshot")

	// ErrUnsafeView reports that a view admits no labeling because it is
	// unsafe (Definition 13 applied to the view specification).
	ErrUnsafeView = errors.New("unsafe view")

	// ErrNotLinearRecursive reports that the grammar is not strictly
	// linear-recursive, so the compact labeling scheme does not apply
	// (Theorem 6); the basic (Theorem 1) scheme remains available.
	ErrNotLinearRecursive = errors.New("grammar is not strictly linear-recursive")

	// ErrHiddenItem reports a query about a data item the view hides.
	ErrHiddenItem = errors.New("data item is not visible in the view")

	// ErrUnknownItem reports a query about a data item ID that has no label
	// at the answering step prefix: the ID is unknown, or the item had not
	// yet been produced when the live session pinned the prefix.
	ErrUnknownItem = errors.New("data item has no label at this prefix")

	// ErrCorruptJournal reports that a step journal failed validation: bad
	// magic, a truncated or non-canonical varint, or an out-of-range value.
	ErrCorruptJournal = errors.New("corrupt step journal")

	// ErrTornJournal reports that a step journal ends in a torn (incomplete)
	// trailing record — the signature of a crash mid-append. Errors carrying
	// this sentinel also wrap ErrCorruptJournal, so existing corruption
	// classification keeps working; durable recovery additionally uses it to
	// decide what to do with the tail: a torn tail of the last journal
	// segment is truncated, one anywhere else is refused.
	ErrTornJournal = errors.New("step journal ends in a torn trailing record")

	// ErrCorruptManifest reports that a durable session directory's MANIFEST
	// failed validation: bad magic, checksum mismatch, truncation, or a
	// structurally invalid field.
	ErrCorruptManifest = errors.New("corrupt session manifest")

	// ErrCorruptCheckpoint reports that a session checkpoint artifact failed
	// validation: a length or CRC-32 that differs from the manifest's, a
	// step journal that does not decode, a step count that differs from the
	// manifest's, or a step that does not apply.
	ErrCorruptCheckpoint = errors.New("corrupt session checkpoint")

	// ErrInvalidStep reports a journaled step that decodes cleanly but does
	// not apply to the specification on replay: an unknown instance, an
	// already-expanded instance, or a production that does not expand the
	// instance's module.
	ErrInvalidStep = errors.New("journal step does not apply to the specification")

	// ErrInvalidQuery reports a set-query expression that does not parse, or
	// parses but cannot be compiled into a plan: a syntax error in the query
	// text, a combinator applied to operands of mismatched result kinds, or a
	// projection side outside {1, 2}.
	ErrInvalidQuery = errors.New("invalid set-query expression")
)
