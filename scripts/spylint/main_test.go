package main

import (
	"testing"

	"spylint/internal/analysistest"
)

// Every fixture runs under the full analyzer set, exactly like a real
// vet invocation: a fixture must be clean for the analyzers it is not
// exercising, which also guards against cross-analyzer false positives.

func TestResetComplete(t *testing.T) {
	analysistest.Run(t, "testdata/resetcomplete", analyzers)
}

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata/detrand", analyzers)
}

func TestDroppedErr(t *testing.T) {
	analysistest.Run(t, "testdata/droppederr", analyzers)
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc", analyzers)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/ctxflow", analyzers)
}
