// Package suite registers the repo's analyzers in one place: the list
// cmd/fvlvet runs under go vet -vettool and names in its -flags reply.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/faultwrap"
	"repro/internal/analysis/immutafter"
	"repro/internal/analysis/pubatomic"
	"repro/internal/analysis/syncrename"
)

// All returns the full analyzer suite in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		ctxflow.Analyzer,
		faultwrap.Analyzer,
		immutafter.Analyzer,
		pubatomic.Analyzer,
		syncrename.Analyzer,
	}
}
