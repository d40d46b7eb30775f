package xtestvariant

func Bump(t *T) { t.n++ }
