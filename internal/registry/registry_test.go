package registry

import (
	"fmt"
	"testing"
)

type entry struct {
	Name   string
	Params []Param
	Run    func()
}

func newTestRegistry() *Registry[entry] {
	return New(Words{
		Pkg: "test", Kind: "entry", Owner: "entry ",
		Head: "entry", Key: "key", Func: "Run", Reader: "runner",
	}, func(e *entry) Decl {
		return Decl{Name: e.Name, Params: e.Params, HasFunc: e.Run != nil}
	})
}

// panicText returns the panic message of f, or "" if it returns.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRegisterPanics pins the init-time checks of Register and their
// wording, which every axis shares.
func TestRegisterPanics(t *testing.T) {
	run := func() {}
	r := newTestRegistry()
	r.Register(entry{Name: "a", Params: []Param{{Name: "k", Default: 1, Min: 0, Max: 2, Int: true}}, Run: run})
	for _, tc := range []struct {
		e    entry
		want string
	}{
		{entry{Run: run}, "test: Register with empty entry name"},
		{entry{Name: "b"}, `test: entry "b" has no Run function`},
		{entry{Name: "b", Params: []Param{{Name: ""}}, Run: run}, `test: entry "b" declares empty or duplicate parameter ""`},
		{entry{Name: "b", Params: []Param{{Name: "k"}, {Name: "k"}}, Run: run}, `test: entry "b" declares empty or duplicate parameter "k"`},
		{entry{Name: "b", Params: []Param{{Name: "k", Default: 3, Max: 2}}, Run: run}, `test: entry "b" parameter "k" default 3 outside [0, 2]`},
		{entry{Name: "b", Params: []Param{{Name: "k", Default: 0.5, Max: 2, Int: true}}, Run: run}, `test: entry "b" integer parameter "k" has fractional default 0.5`},
		{entry{Name: "a", Run: run}, `test: entry "a" registered twice`},
	} {
		if got := panicText(func() { r.Register(tc.e) }); got != tc.want {
			t.Errorf("Register(%+v) panic = %q, want %q", tc.e, got, tc.want)
		}
	}
	if got := r.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("failed registrations changed the registry: %v", got)
	}

	_, v, err := r.Resolve("a", map[string]float64{"k": 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("k") != 2 {
		t.Errorf("Int(k) = %d, want 2", v.Int("k"))
	}
	want := `test: runner read undeclared parameter "nope"`
	if got := panicText(func() { v.Float("nope") }); got != want {
		t.Errorf("Float(nope) panic = %q, want %q", got, want)
	}
}
