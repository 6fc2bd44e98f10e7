package machine

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// SortedKeys is the allow-listed map-iteration shape: the body only
// collects, and the slice is sorted before use. No directive needed.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LineAllow suppresses a single finding with a recorded reason.
func LineAllow() int64 {
	return time.Now().Unix() //tdnuca:allow(wallclock) fixture: deliberate line-scoped suppression
}

// FuncAllow is exempt as a whole: the directive rides its doc comment.
//
//tdnuca:allow(mathrand) fixture: deliberate function-scoped suppression
func FuncAllow() int {
	return rand.Intn(4)
}

// CheckedAccess is a hot-path root whose only callee is a checker-only
// function; the function-scoped allow stops the transitive walk there.
//
//tdnuca:hotpath
func CheckedAccess(x []int) int {
	debugDump(x)
	return len(x)
}

// debugDump is checker-only code the hot-path walk must not descend into.
//
//tdnuca:allow(alloc) fixture: checker-only, never reached on a measured run
func debugDump(x []int) {
	b := make([]byte, len(x))
	os.Stderr.Write(b)
}

// StaleLine carries a line-scoped allow that suppresses nothing.
func StaleLine() int64 {
	//tdnuca:allow(wallclock) fixture: nothing on the next line reads the clock
	// want-above directive/stale
	return 0
}

// StaleFunc carries a function-scoped allow that suppresses nothing.
//
//tdnuca:allow(mathrand) fixture: the body draws no random numbers
func StaleFunc() {} // want-above directive/stale
