package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A shared host changes speed from second to second and by up to 1.8×
// over minutes, as other tenants come and go, which would swamp a 15%
// bound. Contention only ever adds time, so the fast end of a run's
// timings is the least disturbed part of it. Every run therefore also
// times a fixed calibration kernel between its ops and reports wall-clock
// metrics scaled to a reference host: raw × calibRefMs / the kernel's
// quietQ-quantile time in the run. The kernel uses no repository code, so
// a change to the simulator cannot move it.
//
// The kernel has two parts, because the host's contention does not slow
// all code alike: a small loop over data held in cache (pointer chasing,
// map updates, a sort, branches), which tracks the interpreter, and a JSON
// round trip, a regular expression and formatting, whose large code
// footprint and allocation track the image builder.

// quietQ is the quantile taken as a run's quiet-host time, of the kernel
// and of each kind of op.
const quietQ = 0.1

// calibRefMs is the kernel's quietQ-quantile time on the reference host,
// one vCPU of an otherwise idle 2-vCPU KVM guest on a 2 GHz Intel Xeon.
const calibRefMs = 3.3

// calibEvery is how often the measured phase pauses for the kernel.
const calibEvery = 100 * time.Millisecond

type calibNode struct {
	next *calibNode
	val  int
	_    [6]int // one node per 64-byte cache line
}

// calibRecord is the JSON part's data: a tree of 341 records.
type calibRecord struct {
	Name  string
	ID    int
	Tags  []string
	Attrs map[string]float64
	Kids  []calibRecord
}

// calibState is allocated once: a shuffled linked list, a map and a slice
// to sort, about 1 MB together, so that they fit in L2 once warm; and the
// JSON part's tree and pattern.
var calibState = func() (s struct {
	head   *calibNode
	m      map[int]int
	keys   []int
	sorted []int
	tree   calibRecord
	re     *regexp.Regexp
}) {
	const nodes = 1 << 13
	ns := make([]calibNode, nodes)
	order := make([]int, nodes)
	x := uint32(12345)
	for i := range order {
		order[i] = i
	}
	for i := range order {
		x = x*1664525 + 1013904223
		j := int(x) & (nodes - 1)
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i < nodes-1; i++ {
		ns[order[i]].next = &ns[order[i+1]]
		ns[order[i]].val = i
	}
	s.head = &ns[order[0]]
	s.m = make(map[int]int, 1<<13)
	s.keys = make([]int, 12000)
	for i := range s.keys {
		x = x*1664525 + 1013904223
		s.keys[i] = int(x)
	}
	s.sorted = make([]int, len(s.keys))
	var tree func(depth, id int) calibRecord
	tree = func(depth, id int) calibRecord {
		r := calibRecord{
			Name: "node" + strconv.Itoa(id), ID: id, Tags: []string{"a", "bb", "ccc"},
			Attrs: map[string]float64{"x": float64(id), "y": 2.5},
		}
		for j := 0; depth > 0 && j < 4; j++ {
			r.Kids = append(r.Kids, tree(depth-1, 4*id+j))
		}
		return r
	}
	s.tree = tree(4, 1)
	s.re = regexp.MustCompile(`"Name":"node(\d+)","ID":(\d+)`)
	return s
}()

var calibSink int

// calibrate runs the kernel once untimed, so that its data and code are in
// cache — otherwise its time would depend on how much of the cache the op
// before it used, which a change to the simulator moves — and then again,
// timed, and returns the second run's duration.
func calibrate() time.Duration {
	calibSink += calibWork()
	start := time.Now()
	calibSink += calibWork()
	return time.Since(start)
}

func calibWork() int {
	s := &calibState
	sum := 0
	for r := 0; r < 4; r++ {
		for p := s.head; p != nil; p = p.next {
			sum += p.val
		}
	}
	for i, k := range s.keys {
		s.m[k&(1<<13-1)] += i
	}
	copy(s.sorted, s.keys)
	slices.Sort(s.sorted)
	acc := 0
	for i := 0; i < 150000; i++ {
		switch (i ^ acc) & 7 {
		case 0:
			acc += i
		case 1:
			acc ^= i << 1
		case 2:
			acc -= i >> 2
		case 3:
			acc *= 3
		default:
			acc++
		}
	}

	b, err := json.Marshal(s.tree)
	if err != nil {
		panic(fmt.Sprintf("calibration kernel: %v", err)) // the tree is fixed: a bug
	}
	var back calibRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(fmt.Sprintf("calibration kernel: %v", err))
	}
	var sb strings.Builder
	for _, m := range s.re.FindAllSubmatch(b, -1) {
		fmt.Fprintf(&sb, "%s=%s;%.3f ", m[1], m[2], float64(len(m[0]))/7)
	}
	return sum + s.sorted[0] + acc + len(s.m) + len(back.Kids) + sb.Len()
}
