package httpd

import (
	"context"
	"testing"

	"spex/internal/conffile"
	"spex/internal/confgen"
	"spex/internal/inject"
	"spex/internal/spex"
)

func TestAllocBuffer(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("allocBuffer(-1) did not panic")
			}
		}()
		allocBuffer(-1)
	}()
	if n := len(allocBuffer(4096)); n != 4096 {
		t.Errorf("len(allocBuffer(4096)) = %d, want 4096", n)
	}
	if n := len(allocBuffer(1 << 30)); n != 1<<20 {
		t.Errorf("len(allocBuffer(1<<30)) = %d, want %d (capped)", n, 1<<20)
	}
}

// TestCampaignLeavesArenaZero runs a parallel campaign, whose boots all
// share zeroArena through allocBuffer, and checks the arena is still all
// zero. Under -race it also shows no boot writes to it.
func TestCampaignLeavesArenaZero(t *testing.T) {
	s := New()
	res, err := spex.InferSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := conffile.Parse(s.DefaultConfig(), s.Syntax())
	if err != nil {
		t.Fatal(err)
	}
	ms := confgen.NewRegistry().Generate(res.Set, tmpl)
	opts := inject.DefaultOptions()
	opts.Workers = 4
	if _, err := inject.RunContext(context.Background(), s, ms, opts); err != nil {
		t.Fatal(err)
	}
	for i, b := range zeroArena {
		if b != 0 {
			t.Fatalf("zeroArena[%d] = %d after the campaign, want 0", i, b)
		}
	}
}
