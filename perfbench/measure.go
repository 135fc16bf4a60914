package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailRank is the nearest-rank position (1-based) of the reported tail
// percentile for n samples: p99 when the sample supports it, otherwise
// the highest percentile that leaves at least ten samples beyond it. It
// returns 0 when n is too small for any tail above the median.
func tailRank(n int) int {
	rank := int(math.Ceil(0.99 * float64(n)))
	if rank > n-10 {
		rank = n - 10
	}
	if rank <= medianRank(n) {
		return 0
	}
	return rank
}

func medianRank(n int) int { return int(math.Ceil(0.5 * float64(n))) }

// dist is one latency distribution: samples in milliseconds, with a
// failed request recorded as +Inf (it misses every latency limit).
type dist struct {
	ms []float64
}

func (d *dist) add(ms float64) { d.ms = append(d.ms, ms) }
func (d *dist) fail()          { d.ms = append(d.ms, math.Inf(1)) }

// quantiles returns the median and the tail (see tailRank) with the
// percentile level the tail was taken at; NaN when there are no samples
// (or too few for a tail).
func (d *dist) quantiles() (p50, tail, level float64) {
	n := len(d.ms)
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	p50 = s[medianRank(n)-1]
	r := tailRank(n)
	if r == 0 {
		return p50, math.NaN(), 0
	}
	return p50, s[r-1], 100 * float64(r) / float64(n)
}

func (d *dist) mean() float64 {
	if len(d.ms) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d.ms {
		sum += v
	}
	return sum / float64(len(d.ms))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counts tallies one phase's requests.
type counts struct {
	Attempted int
	Succeeded int
	Failed    int // transport errors, non-2xx other than 503, wrong answers
	Shed      int // 503: shed at capacity or timed out
	Wrong     int // 2xx whose answer failed the check (also in Failed)
}

func (c *counts) addAll(o counts) {
	c.Attempted += o.Attempted
	c.Succeeded += o.Succeeded
	c.Failed += o.Failed
	c.Shed += o.Shed
	c.Wrong += o.Wrong
}

func (c counts) errorRate() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Failed+c.Shed) / float64(c.Attempted)
}

// promSnapshot is one /metrics scrape: series (name plus label set, as
// printed) to value.
type promSnapshot map[string]float64

func scrape(client *http.Client, url string) (promSnapshot, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func scrapeAll(client *http.Client, urls []string) ([]promSnapshot, error) {
	out := make([]promSnapshot, len(urls))
	for i, u := range urls {
		s, err := scrape(client, u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// promDelta sums after−before over several servers' scrapes, per series.
type promDelta map[string]float64

func deltaOf(before, after []promSnapshot) promDelta {
	d := promDelta{}
	for i := range after {
		for k, v := range after[i] {
			d[k] += v - before[i][k]
		}
	}
	return d
}

// gaugeOf sums the final values of a gauge across servers.
func gaugeOf(after []promSnapshot, series string) float64 {
	sum := 0.0
	for _, s := range after {
		sum += s[series]
	}
	return sum
}

// ratio is a/b, NaN when b is 0 (the value is then absent, not zero).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
