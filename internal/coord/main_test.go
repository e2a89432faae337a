package coord

import (
	"testing"

	"spex/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
