package comm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// BuildBroadcast compiles the paper's flooding broadcast (§4.2) along a
// path: the PE at path index 0 streams its accumulator; every router
// duplicates the stream towards the far end of the path and up its own
// ramp (hardware multicast at no cost), so the whole broadcast costs the
// same as sending a single message (Lemma 4.1: T = B + P + 2T_R).
//
// Ops are appended to whatever program the PEs already have, which is how
// AllReduce composes Reduce-then-Broadcast.
func BuildBroadcast(spec *fabric.Spec, path mesh.Path, b int, color mesh.Color) error {
	if err := path.Validate(); err != nil {
		return err
	}
	if b <= 0 {
		return fmt.Errorf("comm: vector length %d", b)
	}
	p := len(path)
	if p == 1 {
		return nil // nothing to broadcast to
	}
	for v := 0; v < p; v++ {
		pe := spec.PE(path[v])
		if v == 0 {
			pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpSend, Color: color, N: b})
			pe.AddConfig(color, fabric.RouterConfig{
				Accept:  mesh.Ramp,
				Forward: mesh.Dirs(path.TowardEnd(v)),
			})
			continue
		}
		pe.Ops = append(pe.Ops, fabric.Op{Kind: fabric.OpRecvStore, Color: color, N: b})
		fwd := mesh.Dirs(mesh.Ramp)
		if v < p-1 {
			fwd = fwd.Set(path.TowardEnd(v))
		}
		pe.AddConfig(color, fabric.RouterConfig{
			Accept:  path.TowardStart(v),
			Forward: fwd,
		})
	}
	return nil
}

// BuildBroadcast2D compiles the 2D flooding broadcast of §7.1 from root:
// the root streams both ways along its row while every router of that row
// multicasts the stream up and down its column, reaching all width×height
// PEs with depth 1 and distance the Manhattan distance to the farthest corner
// (Lemma 7.1 from root (0,0), the paper's flood). The middle-root AllReduce
// floods a P×1 grid from (P/2, 0), the centre root a grid from its centre.
func BuildBroadcast2D(spec *fabric.Spec, width, height int, root mesh.Coord, b int, color mesh.Color) error {
	if b <= 0 {
		return fmt.Errorf("comm: vector length %d", b)
	}
	if width < 1 || height < 1 {
		return fmt.Errorf("comm: broadcast2d on %dx%d grid", width, height)
	}
	if root.X < 0 || root.X >= width || root.Y < 0 || root.Y >= height {
		return fmt.Errorf("comm: broadcast2d root %v outside %dx%d grid", root, width, height)
	}
	if width*height == 1 {
		return nil
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			pe := spec.PE(mesh.Coord{X: x, Y: y})
			op := fabric.Op{Kind: fabric.OpRecvStore, Color: color, N: b}
			fwd := mesh.Dirs(mesh.Ramp)
			var accept mesh.Direction
			switch {
			case x == root.X && y == root.Y:
				op.Kind, accept, fwd = fabric.OpSend, mesh.Ramp, 0
			case y == root.Y && x > root.X:
				accept = mesh.West
			case y == root.Y:
				accept = mesh.East
			case y > root.Y:
				accept = mesh.North
			default:
				accept = mesh.South
			}
			if y == root.Y { // the root's row: on along the row, and into every column
				if x >= root.X && x < width-1 {
					fwd = fwd.Set(mesh.East)
				}
				if x <= root.X && x > 0 {
					fwd = fwd.Set(mesh.West)
				}
			}
			if y >= root.Y && y < height-1 {
				fwd = fwd.Set(mesh.South)
			}
			if y <= root.Y && y > 0 {
				fwd = fwd.Set(mesh.North)
			}
			pe.Ops = append(pe.Ops, op)
			pe.AddConfig(color, fabric.RouterConfig{Accept: accept, Forward: fwd})
		}
	}
	return nil
}
