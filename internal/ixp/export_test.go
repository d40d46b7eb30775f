package ixp

// UsePolling switches x's thread pools, including those of flows registered
// later, to the polling reference, so tests outside the package can check a
// whole platform against it.
func UsePolling(x *IXP) { usePolling(x) }
