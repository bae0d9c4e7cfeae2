GO ?= go

.PHONY: build test race vet bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs standard go vet, then fvlvet, the repo's own invariant suite (see
# DESIGN.md, "Enforced invariants"), as a go vet tool over the module and the
# nested perfbench module.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/fvlvet ./cmd/fvlvet
	$(GO) vet -vettool=$(abspath bin/fvlvet) ./...
	cd perfbench && $(GO) vet -vettool=$(abspath bin/fvlvet) ./...

bench:
	$(GO) run ./cmd/fvlbench -quick
