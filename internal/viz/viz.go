// Package viz renders experiment results as standalone SVG charts using
// only the standard library, so the figure harness can emit plot files next
// to its CSV tables (soclbench -svg). Line charts (optionally log-scale y,
// for the paper's runtime plots) and grouped bar charts (for the objective
// comparisons) cover every figure shape in the paper.
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named line or bar group.
type Series struct {
	Name string
	X    []float64 // ignored by bar charts (labels index instead)
	Y    []float64
}

// palette holds the series colors (colorblind-safe-ish defaults).
var palette = []string{"#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d5a97", "#555555"}

const (
	width   = 640
	height  = 400
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 55
)

// LineChart renders series as polylines. logY switches the y axis to log10
// (non-positive values are clamped to the smallest positive y).
func LineChart(title, xLabel, yLabel string, series []Series, logY bool) string {
	var b strings.Builder
	header(&b, title)

	// Data ranges.
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	minPos := math.Inf(1)
	for _, s := range series {
		for i := range s.X {
			xMin = math.Min(xMin, s.X[i])
			xMax = math.Max(xMax, s.X[i])
			y := s.Y[i]
			if y > 0 {
				minPos = math.Min(minPos, y)
			}
			yMin = math.Min(yMin, y)
			yMax = math.Max(yMax, y)
		}
	}
	if math.IsInf(xMin, 1) { // no data
		b.WriteString("</svg>\n")
		return b.String()
	}
	ty := func(y float64) float64 { return y }
	if logY {
		if math.IsInf(minPos, 1) {
			minPos = 1e-6
		}
		ty = func(y float64) float64 {
			if y <= 0 {
				y = minPos
			}
			return math.Log10(y)
		}
		yMin, yMax = ty(math.Max(yMin, minPos)), ty(yMax)
	}
	//socllint:ignore floateq degenerate-range guard: equal extrema would divide by zero either way
	if xMax == xMin {
		xMax = xMin + 1
	}
	//socllint:ignore floateq degenerate-range guard: equal extrema would divide by zero either way
	if yMax == yMin {
		yMax = yMin + 1
	}
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	px := func(x float64) float64 { return marginL + (x-xMin)/(xMax-xMin)*plotW }
	py := func(y float64) float64 { return float64(height-marginB) - (ty(y)-yMin)/(yMax-yMin)*plotH }

	axes(&b, xLabel, yLabel)
	// y ticks: 5 evenly spaced (in transformed space).
	for i := 0; i <= 4; i++ {
		v := yMin + (yMax-yMin)*float64(i)/4
		label := v
		if logY {
			label = math.Pow(10, v)
		}
		y := float64(height-marginB) - float64(i)/4*plotH
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, fmtTick(label))
	}
	// x ticks at each distinct x.
	xs := distinctX(series)
	for _, x := range xs {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px(x), height-marginB+18, fmtTick(x))
	}

	for si, s := range series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for i := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				px(s.X[i]), py(s.Y[i]), color)
		}
		legend(&b, si, s.Name, color)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// GroupedBarChart renders one bar per (label, series) pair, grouped by
// label.
func GroupedBarChart(title, yLabel string, labels []string, series []Series) string {
	var b strings.Builder
	header(&b, title)
	yMax := 0.0
	for _, s := range series {
		for _, y := range s.Y {
			yMax = math.Max(yMax, y)
		}
	}
	if yMax == 0 {
		yMax = 1
	}
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	groupW := plotW / float64(len(labels))
	barW := groupW / float64(len(series)+1)

	axes(&b, "", yLabel)
	for i := 0; i <= 4; i++ {
		v := yMax * float64(i) / 4
		y := float64(height-marginB) - float64(i)/4*plotH
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, fmtTick(v))
	}
	for li, label := range labels {
		gx := marginL + float64(li)*groupW
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			gx+groupW/2, height-marginB+18, xmlEscape(label))
		for si, s := range series {
			if li >= len(s.Y) {
				continue
			}
			h := s.Y[li] / yMax * plotH
			x := gx + barW/2 + float64(si)*barW
			y := float64(height-marginB) - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, y, barW*0.9, h, palette[si%len(palette)])
		}
	}
	for si, s := range series {
		legend(&b, si, s.Name, palette[si%len(palette)])
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", width, height)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(b, `<text x="%d" y="22" font-size="14" text-anchor="middle" font-weight="bold">%s</text>`+"\n",
		width/2, xmlEscape(title))
}

func axes(b *strings.Builder, xLabel, yLabel string) {
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, height-marginB)
	if xLabel != "" {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
			(marginL+width-marginR)/2, height-12, xmlEscape(xLabel))
	}
	if yLabel != "" {
		fmt.Fprintf(b, `<text x="16" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
			(marginT+height-marginB)/2, (marginT+height-marginB)/2, xmlEscape(yLabel))
	}
}

func legend(b *strings.Builder, idx int, name, color string) {
	x := marginL + 10 + (idx%3)*170
	y := marginT - 8 + (idx/3)*16
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", x, y-9, color)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", x+14, y, xmlEscape(name))
}

func distinctX(series []Series) []float64 {
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			seen[x] = true
		}
	}
	out := make([]float64, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Float64s(out)
	if len(out) > 12 { // thin dense axes
		step := len(out) / 12
		var thin []float64
		for i := 0; i < len(out); i += step + 1 {
			thin = append(thin, out[i])
		}
		out = thin
	}
	return out
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 10000 || (av < 0.01 && av > 0):
		return fmt.Sprintf("%.1e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
