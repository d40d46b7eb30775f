package xtestvariant_test

import (
	"testing"

	"repro/internal/lint/testdata/src/xtestvariant"
	"repro/internal/lint/testdata/src/xtestvariant/user"
)

func TestBump(t *testing.T) { xtestvariant.Bump(user.Make()) }
