package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bruteforce"
	"repro/internal/vecmath"
)

// quality is the answer quality of a query sample against the exact oracle,
// micro-averaged: recall is the share of true reverse neighbors returned,
// precision the share of returned IDs that are true reverse neighbors.
//
// RDT+ may return a false hit only through lazy acceptance (paper Section
// 4.3: a first-cycle reject dropped from the filter set can no longer
// witness a later candidate), so a query is unexplained when its false hits
// outnumber the lazy accepts it reported. Verified candidates are never
// false hits.
type quality struct {
	queries             int
	truth, got, correct int
	falseHits           int
	unexplained         int
}

func (q quality) recall() float64 {
	if q.truth == 0 {
		return 1
	}
	return float64(q.correct) / float64(q.truth)
}

func (q quality) precision() float64 {
	if q.got == 0 {
		return 1
	}
	return float64(q.correct) / float64(q.got)
}

// add scores one answer against the exact one; both are ascending ID lists.
// lazyAccepts is the number of candidates the query accepted lazily.
func (q *quality) add(got, truth []int, lazyAccepts int) {
	correct := 0
	i, j := 0, 0
	for i < len(got) && j < len(truth) {
		switch {
		case got[i] == truth[j]:
			correct++
			i++
			j++
		case got[i] < truth[j]:
			i++
		default:
			j++
		}
	}
	q.queries++
	q.truth += len(truth)
	q.got += len(got)
	q.correct += correct
	hits := len(got) - correct
	q.falseHits += hits
	if hits > lazyAccepts {
		q.unexplained++
	}
}

// liveData is a dataset under the IDs the server gave its points.
type liveData struct {
	ids    []int // ascending
	points [][]float64
}

// baseData numbers points 0..n-1, as a freshly loaded server does.
func baseData(points [][]float64) liveData {
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	return liveData{ids: ids, points: points}
}

// data returns base followed by the live inserted points, under the IDs
// the server assigned.
func (l *liveSet) data(base [][]float64) liveData {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := baseData(base)
	extra := make([]int, 0, len(l.points))
	for id := range l.points {
		extra = append(extra, id)
	}
	slices.Sort(extra)
	for _, id := range extra {
		d.ids = append(d.ids, id)
		d.points = append(d.points, l.points[id])
	}
	return d
}

// exactRkNN answers every query by brute force over d, in parallel on all
// CPUs, and returns the answers under d's IDs.
func exactRkNN(d liveData, queries [][]float64, k int) ([][]int, error) {
	truth, err := bruteforce.New(d.points, vecmath.Euclidean{})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	next := make(chan int, len(queries)) // every index, so the workers never block on it
	for i := range queries {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pos, err := truth.RkNN(queries[i], k)
				if err != nil {
					errs[i] = err
					continue
				}
				ids := make([]int, len(pos))
				for j, p := range pos {
					ids[j] = d.ids[p]
				}
				out[i] = ids
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return out, nil
}

// score compares the server's answers with the exact ones. An answer
// without stats counts as accepting nothing lazily.
func score(got []*rknnAnswer, exact [][]int) quality {
	var q quality
	for i, a := range got {
		lazy := 0
		if a.Stats != nil {
			lazy = a.Stats.LazyAccepts
		}
		q.add(a.IDs, exact[i], lazy)
	}
	return q
}
