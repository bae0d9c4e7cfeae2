package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "alpha", "wf-run.2", "A_b-c.d", "x9", "dots..inside", strings.Repeat("a", 64)}
	for _, name := range valid {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false, want true", name)
		}
	}
	invalid := []string{"", ".hidden", ".", "..", "has space", "slash/y", "unié",
		"semi;colon", "tab\tname", strings.Repeat("a", 65)}
	for _, name := range invalid {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true, want false", name)
		}
	}
}

// Every sentinel in the kinds table must survive a full wire round trip:
// ErrorOf → JSON → Err() → errors.Is against the original sentinel.
func TestErrorKindsRoundTrip(t *testing.T) {
	sentinels := []error{
		faults.ErrCanceled, faults.ErrUnknownView, faults.ErrForeignLabel,
		faults.ErrCorruptSnapshot, faults.ErrUnsafeView, faults.ErrNotLinearRecursive,
		faults.ErrHiddenItem, faults.ErrUnknownItem, faults.ErrCorruptJournal,
		faults.ErrTornJournal, faults.ErrCorruptManifest, faults.ErrCorruptCheckpoint,
		faults.ErrInvalidStep, faults.ErrInvalidQuery,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("context: %w", sentinel)
		we := ErrorOf(wrapped)
		if we == nil {
			t.Fatalf("ErrorOf(%v) = nil", sentinel)
		}
		if we.Kind == "" {
			t.Errorf("ErrorOf(%v) has no kind", sentinel)
		}
		data, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		var back Error
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		remote := back.Err()
		if !errors.Is(remote, sentinel) {
			t.Errorf("kind %q: errors.Is lost %v after the round trip", we.Kind, sentinel)
		}
		if remote.Error() != wrapped.Error() {
			t.Errorf("kind %q: message %q, want %q", we.Kind, remote.Error(), wrapped.Error())
		}
	}
}

// A torn journal also wraps ErrCorruptJournal; the wire must keep the more
// specific kind so remote callers can distinguish truncation from garbage.
func TestTornJournalKeepsSpecificKind(t *testing.T) {
	we := ErrorOf(fmt.Errorf("tail: %w", faults.ErrTornJournal))
	if we.Kind != "torn-journal" {
		t.Fatalf("kind = %q, want torn-journal", we.Kind)
	}
	if !errors.Is(we.Err(), faults.ErrCorruptJournal) {
		t.Fatal("torn-journal no longer implies corrupt-journal remotely")
	}
}

func TestErrorOfPlainError(t *testing.T) {
	we := ErrorOf(errors.New("plain failure"))
	if we.Kind != "" {
		t.Fatalf("plain error got kind %q", we.Kind)
	}
	remote := we.Err()
	if remote.Error() != "plain failure" {
		t.Fatalf("message = %q", remote.Error())
	}
	if errors.Is(remote, faults.ErrInvalidStep) {
		t.Fatal("kindless error unwraps to a sentinel")
	}
	if ErrorOf(nil) != nil {
		t.Fatal("ErrorOf(nil) != nil")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{faults.ErrCorruptSnapshot, "bad-request"},
		{faults.ErrCorruptJournal, "bad-request"},
		{faults.ErrInvalidQuery, "bad-request"},
		{faults.ErrInvalidStep, "unprocessable"},
		{faults.ErrUnknownItem, "unprocessable"},
		{faults.ErrUnknownView, "unprocessable"},
		{errors.New("anything else"), "internal"},
	}
	for _, tc := range cases {
		if got := Classify(fmt.Errorf("wrap: %w", tc.err)); got != tc.want {
			t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
