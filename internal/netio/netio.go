// Package netio serializes a constructed network — deployment geometry,
// cluster structure, time-slots and group state — to JSON for external
// tooling, and renders a quick ASCII map of the field for terminal
// inspection.
package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/timeslot"
)

// Node is the JSON form of one sensor.
type Node struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Status string  `json:"status"`
	Parent *int    `json:"parent,omitempty"`
	Depth  int     `json:"depth"`
	BSlot  *int    `json:"b_slot,omitempty"`
	LSlot  *int    `json:"l_slot,omitempty"`
	USlot  *int    `json:"u_slot,omitempty"`
	Groups []int   `json:"groups,omitempty"`
	Relays []int   `json:"relay_list,omitempty"`
}

// Network is the JSON form of the whole system state.
type Network struct {
	RegionWidth  float64  `json:"region_width_m"`
	RegionHeight float64  `json:"region_height_m"`
	Range        float64  `json:"range_m"`
	Root         int      `json:"root"`
	Nodes        []Node   `json:"nodes"`
	Edges        [][2]int `json:"edges"`
	Delta        int      `json:"delta_l"`
	SmallDelta   int      `json:"delta_b"`
}

// Export captures net (with the deployment providing geometry) as a
// serializable Network. The deployment's node i must be network node i.
func Export(net *core.Network, d *geom.Deployment) (*Network, error) {
	tr := net.CNet().Tree()
	if d.NumNodes() < net.Size() {
		return nil, fmt.Errorf("netio: deployment has %d positions for %d nodes", d.NumNodes(), net.Size())
	}
	out := &Network{
		RegionWidth:  d.Region.Width,
		RegionHeight: d.Region.Height,
		Range:        d.Range,
		Root:         int(net.Root()),
		Delta:        net.Slots().Delta(),
		SmallDelta:   net.Slots().SmallDelta(),
	}
	depth := tr.DepthMap()
	for _, id := range tr.Nodes() {
		if int(id) >= d.NumNodes() {
			return nil, fmt.Errorf("netio: node %d has no position", id)
		}
		st, _ := net.CNet().Status(id)
		n := Node{
			ID:     int(id),
			X:      d.Pos[int(id)].X,
			Y:      d.Pos[int(id)].Y,
			Status: statusWord(st),
			Depth:  depth[id],
			Groups: net.Groups().GroupList(id),
			Relays: net.Groups().RelayList(id),
		}
		if p, ok := tr.Parent(id); ok {
			pi := int(p)
			n.Parent = &pi
		}
		if s, ok := net.Slots().Slot(timeslot.B, id); ok {
			n.BSlot = &s
		}
		if s, ok := net.Slots().Slot(timeslot.L, id); ok {
			n.LSlot = &s
		}
		if s, ok := net.Slots().Slot(timeslot.U, id); ok {
			n.USlot = &s
		}
		out.Nodes = append(out.Nodes, n)
	}
	g := net.Graph()
	for _, u := range g.Nodes() {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out.Edges = append(out.Edges, [2]int{int(u), int(v)})
			}
		}
	}
	return out, nil
}

func statusWord(s cnet.Status) string {
	switch s {
	case cnet.Head:
		return "head"
	case cnet.Gateway:
		return "gateway"
	case cnet.Member:
		return "member"
	default:
		return "unknown"
	}
}

// Write emits indented JSON.
func (n *Network) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// Read parses a Network from JSON.
func Read(r io.Reader) (*Network, error) {
	var n Network
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("netio: decode: %w", err)
	}
	return &n, nil
}

// Graph reconstructs the connectivity graph from a serialized Network.
func (n *Network) Graph() (*graph.Graph, error) {
	g := graph.New()
	for _, node := range n.Nodes {
		g.AddNode(graph.NodeID(node.ID))
	}
	for _, e := range n.Edges {
		if err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// SVG renders the network to scalable vector graphics: radio links in
// light gray, cluster-net tree edges in black, members as small dots,
// gateways as squares, heads as rings and the sink filled. The drawing is
// width pixels wide with height scaled to the region's aspect ratio.
func SVG(net *core.Network, d *geom.Deployment, width int) string {
	if width < 100 {
		width = 600
	}
	scale := float64(width) / d.Region.Width
	height := int(d.Region.Height * scale)
	sx := func(p geom.Point) float64 { return p.X * scale }
	sy := func(p geom.Point) float64 { return float64(height) - p.Y*scale }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	tr := net.CNet().Tree()
	g := net.Graph()
	line := func(u, v graph.NodeID, stroke string, w float64) {
		if int(u) >= d.NumNodes() || int(v) >= d.NumNodes() {
			return
		}
		pu, pv := d.Pos[int(u)], d.Pos[int(v)]
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
			sx(pu), sy(pu), sx(pv), sy(pv), stroke, w)
	}
	for _, u := range g.Nodes() {
		for _, v := range g.Neighbors(u) {
			if u < v {
				line(u, v, "#dddddd", 0.7)
			}
		}
	}
	for _, id := range tr.Nodes() {
		if p, ok := tr.Parent(id); ok {
			line(id, p, "#333333", 1.4)
		}
	}
	for _, id := range tr.Nodes() {
		if int(id) >= d.NumNodes() {
			continue
		}
		p := d.Pos[int(id)]
		x, y := sx(p), sy(p)
		st, _ := net.CNet().Status(id)
		switch {
		case id == net.Root():
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="6" fill="#d62728"/>`+"\n", x, y)
		case st == cnet.Head:
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4.5" fill="white" stroke="#1f77b4" stroke-width="2"/>`+"\n", x, y)
		case st == cnet.Gateway:
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="7" height="7" fill="#2ca02c"/>`+"\n", x-3.5, y-3.5)
		default:
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="#555555"/>`+"\n", x, y)
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// DOT renders the network as a Graphviz graph: cluster-net tree edges are
// solid, remaining radio links dotted; heads are doubled circles, gateways
// boxes, members plain. Positions (when a deployment is given) become pos
// attributes usable with neato -n.
func DOT(net *core.Network, d *geom.Deployment) string {
	var b strings.Builder
	b.WriteString("graph cnet {\n  node [fontsize=9];\n")
	tr := net.CNet().Tree()
	for _, id := range tr.Nodes() {
		shape := "circle"
		switch st, _ := net.CNet().Status(id); st {
		case cnet.Head:
			shape = "doublecircle"
		case cnet.Gateway:
			shape = "box"
		}
		attrs := fmt.Sprintf("shape=%s", shape)
		if id == net.Root() {
			attrs += ", style=filled, fillcolor=gray"
		}
		if d != nil && int(id) < d.NumNodes() {
			p := d.Pos[int(id)]
			attrs += fmt.Sprintf(", pos=\"%.0f,%.0f\"", p.X, p.Y)
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", id, attrs)
	}
	g := net.Graph()
	for _, u := range g.Nodes() {
		for _, v := range g.Neighbors(u) {
			if u >= v {
				continue
			}
			style := "dotted"
			if p, ok := tr.Parent(u); ok && p == v {
				style = "solid"
			}
			if p, ok := tr.Parent(v); ok && p == u {
				style = "solid"
			}
			fmt.Fprintf(&b, "  n%d -- n%d [style=%s];\n", u, v, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// AsciiMap renders the field as a cols x rows character grid: 'R' the
// root, 'H' heads, 'G' gateways, '.' members, with blanks elsewhere. When
// several nodes share a cell the most important one wins (R > H > G > .).
func AsciiMap(net *core.Network, d *geom.Deployment, cols, rows int) string {
	if cols < 1 {
		cols = 60
	}
	if rows < 1 {
		rows = 24
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	rank := func(b byte) int {
		switch b {
		case 'R':
			return 4
		case 'H':
			return 3
		case 'G':
			return 2
		case '.':
			return 1
		default:
			return 0
		}
	}
	for _, id := range net.CNet().Tree().Nodes() {
		if int(id) >= d.NumNodes() {
			continue
		}
		p := d.Pos[int(id)]
		c := int(p.X / d.Region.Width * float64(cols))
		r := int(p.Y / d.Region.Height * float64(rows))
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		var ch byte
		switch st, _ := net.CNet().Status(id); {
		case id == net.Root():
			ch = 'R'
		case st == cnet.Head:
			ch = 'H'
		case st == cnet.Gateway:
			ch = 'G'
		default:
			ch = '.'
		}
		if rank(ch) > rank(grid[rows-1-r][c]) {
			grid[rows-1-r][c] = ch
		}
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	b.WriteString("R=root H=cluster-head G=gateway .=member\n")
	return b.String()
}
