package tree

// This file implements tree operations lifted from / compared against the
// nested-word operations of Section 2.4: insertion, subtree deletion, and
// subtree substitution, plus the first-child/next-sibling binary encoding.

// insertBelow returns a copy of host in which, below every node labelled
// sym, the subtree ins is appended as a new last child.  On the nested-word
// side this is exactly Insert(t_nw(host), sym, t_nw(ins)) restricted to tree
// words whose sym-labelled positions are returns; the more faithful
// correspondence used in tests is via the nested-word operation directly.
func insertBelow(host *Tree, sym string, ins *Tree) *Tree {
	if host == nil {
		return nil
	}
	children := make([]*Tree, 0, len(host.Children)+1)
	for _, c := range host.Children {
		children = append(children, insertBelow(c, sym, ins))
	}
	if host.Label == sym && ins != nil {
		children = append(children, ins.clone())
	}
	return &Tree{Label: host.Label, Children: children}
}

// deleteLabelled returns a copy of host in which every maximal subtree whose
// root is labelled sym has been deleted (the nested-word subtree deletion of
// Section 2.4 applied at every sym-labelled call).  Deleting the root of the
// whole tree yields the empty tree.
func deleteLabelled(host *Tree, sym string) *Tree {
	if host == nil || host.Label == sym {
		return nil
	}
	children := make([]*Tree, 0, len(host.Children))
	for _, c := range host.Children {
		if d := deleteLabelled(c, sym); d != nil {
			children = append(children, d)
		}
	}
	return &Tree{Label: host.Label, Children: children}
}

// substituteLabelled returns a copy of host in which every maximal subtree
// whose root is labelled sym has been replaced by repl (nested-word subtree
// substitution applied at every sym-labelled call).
func substituteLabelled(host *Tree, sym string, repl *Tree) *Tree {
	if host == nil {
		return nil
	}
	if host.Label == sym {
		return repl.clone()
	}
	children := make([]*Tree, 0, len(host.Children))
	for _, c := range host.Children {
		if s := substituteLabelled(c, sym, repl); s != nil {
			children = append(children, s)
		}
	}
	return &Tree{Label: host.Label, Children: children}
}

// isBinary reports whether every node has at most two children.
func (t *Tree) isBinary() bool { return t.arity() <= 2 }

// isUnary reports whether every node has at most one child, i.e. the tree is
// a path (the shape underlying the path languages of Section 3.6).
func (t *Tree) isUnary() bool { return t.arity() <= 1 }

// firstChildNextSibling converts an unranked ordered tree to its standard
// binary encoding: the left child of a node encodes its first child and the
// right child encodes its next sibling.  Nodes of the encoding are labelled
// with the original labels; missing children are nil.  The encoding of the
// empty tree is nil.
func firstChildNextSibling(t *Tree) *binaryNode {
	return fcnsForest([]*Tree{t})
}

// fcnsForest encodes a forest: the first tree becomes the root, its first
// child becomes the left child, and the remaining trees become the right
// spine.
func fcnsForest(forest []*Tree) *binaryNode {
	forest = dropNil(forest)
	if len(forest) == 0 {
		return nil
	}
	head := forest[0]
	return &binaryNode{
		Label: head.Label,
		Left:  fcnsForest(head.Children),
		Right: fcnsForest(forest[1:]),
	}
}

func dropNil(forest []*Tree) []*Tree {
	out := forest[:0:0]
	for _, t := range forest {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// binaryNode is a node of a binary tree in which either child may be absent.
// It is the node of the first-child/next-sibling encoding.
type binaryNode struct {
	Label string
	Left  *binaryNode
	Right *binaryNode
}

// size returns the number of nodes of the binary tree.
func (b *binaryNode) size() int {
	if b == nil {
		return 0
	}
	return 1 + b.Left.size() + b.Right.size()
}

// height returns the height of the binary tree (0 for nil).
func (b *binaryNode) height() int {
	if b == nil {
		return 0
	}
	lh, rh := b.Left.height(), b.Right.height()
	if lh > rh {
		return lh + 1
	}
	return rh + 1
}

// equal reports structural equality of binary trees.
func (b *binaryNode) equal(c *binaryNode) bool {
	if b == nil || c == nil {
		return b == nil && c == nil
	}
	return b.Label == c.Label && b.Left.equal(c.Left) && b.Right.equal(c.Right)
}

// fromFirstChildNextSibling inverts firstChildNextSibling, reconstructing
// the unranked tree from its binary encoding.  If the encoding has a
// non-nil right child at the root (i.e. it encodes a forest of more than one
// tree), only the first tree is returned by fromFirstChildNextSibling;
// use fromFCNSForest to recover the whole forest.
func fromFirstChildNextSibling(b *binaryNode) *Tree {
	forest := fromFCNSForest(b)
	if len(forest) == 0 {
		return nil
	}
	return forest[0]
}

// fromFCNSForest decodes a first-child/next-sibling encoding into the forest
// it represents.
func fromFCNSForest(b *binaryNode) []*Tree {
	var forest []*Tree
	for cur := b; cur != nil; cur = cur.Right {
		forest = append(forest, New(cur.Label, fromFCNSForest(cur.Left)...))
	}
	return forest
}
