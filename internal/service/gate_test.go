package service

import (
	"context"
	"errors"
	"testing"
)

// TestGate covers the lifecycle gate: Enter admits callers until Close,
// Wait waits for the callers inside (and gives up on a dead context),
// and only the first Close reports that it closed the gate.
func TestGate(t *testing.T) {
	var g Gate
	if g.Closed() || !g.Enter() {
		t.Fatal("fresh gate refused Enter")
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Wait(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a dead context with a caller inside: %v, want context.Canceled", err)
	}
	if !g.Close() || g.Close() || !g.Closed() {
		t.Fatal("only the first Close should report closing the gate")
	}
	if g.Enter() {
		t.Fatal("Enter succeeded after Close")
	}
	g.Exit()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
