// Package xtestvariant is a loader fixture: its external test calls a
// function its export_test.go declares, on a value typed through package
// user, which imports this package.
package xtestvariant

type T struct{ n int }

func New() *T { return &T{} }
