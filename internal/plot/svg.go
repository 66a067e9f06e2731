// Package plot renders Workflow Roofline charts, Gantt charts, and stacked
// time-breakdown bars as SVG, plus an ASCII roofline for terminals. It uses
// only the standard library: the paper's artifact is a set of matplotlib
// scripts, and this package is their native-Go replacement.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// ContentTypeSVG is the MIME type every renderer in this package produces;
// HTTP consumers (the wfserved figure endpoint) serve it verbatim.
const ContentTypeSVG = "image/svg+xml"

// Canvas is a minimal SVG surface with pixel coordinates: (0,0) top-left.
type Canvas struct {
	width, height int
	body          strings.Builder
}

// NewCanvas creates a canvas of the given pixel size (clamped to >= 64).
func NewCanvas(width, height int) *Canvas {
	if width < 64 {
		width = 64
	}
	if height < 64 {
		height = 64
	}
	return &Canvas{width: width, height: height}
}

// Width returns the canvas width in pixels.
func (c *Canvas) Width() int { return c.width }

// Height returns the canvas height in pixels.
func (c *Canvas) Height() int { return c.height }

// esc escapes text for XML attribute/content positions.
var esc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// fnum formats a pixel coordinate compactly.
func fnum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
}

// Line draws a stroked segment. dash is an SVG dash pattern ("" = solid).
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string, width float64, dash string) {
	d := ""
	if dash != "" {
		d = fmt.Sprintf(` stroke-dasharray="%s"`, esc.Replace(dash))
	}
	fmt.Fprintf(&c.body, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>`+"\n",
		fnum(x1), fnum(y1), fnum(x2), fnum(y2), esc.Replace(stroke), fnum(width), d)
}

// Rect draws a filled rectangle with optional stroke ("" = none).
func (c *Canvas) Rect(x, y, w, h float64, fill, stroke string, opacity float64) {
	s := ""
	if stroke != "" {
		s = fmt.Sprintf(` stroke="%s"`, esc.Replace(stroke))
	}
	fmt.Fprintf(&c.body, `<rect x="%s" y="%s" width="%s" height="%s" fill="%s" fill-opacity="%s"%s/>`+"\n",
		fnum(x), fnum(y), fnum(w), fnum(h), esc.Replace(fill), fnum(opacity), s)
}

// Circle draws a filled circle.
func (c *Canvas) Circle(cx, cy, r float64, fill, stroke string) {
	s := ""
	if stroke != "" {
		s = fmt.Sprintf(` stroke="%s"`, esc.Replace(stroke))
	}
	fmt.Fprintf(&c.body, `<circle cx="%s" cy="%s" r="%s" fill="%s"%s/>`+"\n",
		fnum(cx), fnum(cy), fnum(r), esc.Replace(fill), s)
}

// Text draws a label. anchor is "start", "middle", or "end".
func (c *Canvas) Text(x, y float64, s string, size float64, fill, anchor string) {
	if anchor == "" {
		anchor = "start"
	}
	fmt.Fprintf(&c.body,
		`<text x="%s" y="%s" font-size="%s" font-family="sans-serif" fill="%s" text-anchor="%s">%s</text>`+"\n",
		fnum(x), fnum(y), fnum(size), esc.Replace(fill), esc.Replace(anchor), esc.Replace(s))
}

// Polyline draws a connected stroke through the points.
func (c *Canvas) Polyline(xs, ys []float64, stroke string, width float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return
	}
	var pts strings.Builder
	for i := range xs {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%s,%s", fnum(xs[i]), fnum(ys[i]))
	}
	fmt.Fprintf(&c.body, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%s"/>`+"\n",
		pts.String(), esc.Replace(stroke), fnum(width))
}

// String assembles the complete SVG document.
func (c *Canvas) String() string {
	return fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n"+
			`<rect x="0" y="0" width="%d" height="%d" fill="white"/>`+"\n%s</svg>\n",
		c.width, c.height, c.width, c.height, c.width, c.height, c.body.String())
}

// LogScale maps a positive data range onto a pixel range logarithmically.
// PixMin may exceed PixMax (SVG y grows downward).
type LogScale struct {
	// Min and Max bound the data range (both must be positive, Min < Max).
	Min, Max float64
	// PixMin and PixMax are the pixel positions of Min and Max.
	PixMin, PixMax float64
}

// Valid reports whether the scale is usable.
func (s LogScale) Valid() bool {
	return s.Min > 0 && s.Max > s.Min &&
		!math.IsInf(s.Max, 0) && !math.IsNaN(s.Min) && !math.IsNaN(s.Max) &&
		s.PixMin != s.PixMax
}

// Pos maps a data value to a pixel position, clamping to the range.
func (s LogScale) Pos(v float64) float64 {
	if v < s.Min {
		v = s.Min
	}
	if v > s.Max {
		v = s.Max
	}
	f := (math.Log10(v) - math.Log10(s.Min)) / (math.Log10(s.Max) - math.Log10(s.Min))
	return s.PixMin + f*(s.PixMax-s.PixMin)
}

// Ticks returns decade tick values within [Min, Max].
func (s LogScale) Ticks() []float64 {
	var out []float64
	lo := math.Ceil(math.Log10(s.Min) - 1e-9)
	hi := math.Floor(math.Log10(s.Max) + 1e-9)
	for e := lo; e <= hi; e++ {
		out = append(out, math.Pow(10, e))
	}
	return out
}

// formatTick renders a tick value compactly (1e-3 style below 0.01 and
// above 10000).
func formatTick(v float64) string {
	if v >= 0.01 && v < 10000 {
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	}
	return fmt.Sprintf("1e%d", int(math.Round(math.Log10(v))))
}
