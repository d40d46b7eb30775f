package user

import "repro/internal/lint/testdata/src/xtestvariant"

func Make() *xtestvariant.T { return xtestvariant.New() }
