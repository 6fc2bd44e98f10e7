package faults_test

import (
	"reflect"
	"testing"

	"tdnuca/internal/arch"
	"tdnuca/internal/faults"
)

// FuzzFaultsParse fuzzes the -faults scenario syntax, the input of the
// CLIs and of the experiment service's "faults" field: Parse and
// Validate must never panic, and every scenario Parse accepts must
// round-trip through its String spelling to the same events.
func FuzzFaultsParse(f *testing.F) {
	scaled := arch.ScaledConfig()
	f.Add(faults.Default(&scaled, 1).String())
	f.Add("bank=3@1000")
	f.Add("link=1-2@2000")
	f.Add("bank=3@5000,link=1-2@8000,rrt=8@12000,rrt=4:0@13000")
	f.Add("rrt=-1:4@0")
	f.Add("rrt=-2:4@0")
	f.Add("link=1--2@5")
	f.Add(" , bank=+3@07 ,")
	f.Add("bank=3")
	f.Add("disk=1@1")
	cfgs := []arch.Config{scaled, arch.ScaledMeshConfig(8, 8), arch.ScaledMeshConfig(1, 3)}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := faults.Parse(s)
		if err != nil {
			return
		}
		for i := range cfgs {
			_ = sc.Validate(&cfgs[i])
		}
		canon := sc.String()
		again, err := faults.Parse(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again.Events, sc.Events) {
			t.Fatalf("%q renders as %q, which parses to different events:\n%+v\n%+v", s, canon, sc.Events, again.Events)
		}
	})
}
