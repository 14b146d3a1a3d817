"""Spanning-tree counts by the matrix-tree theorem, for cross-checking
the enumerators: the Laplacian cofactor in exact integer arithmetic."""


def _det_bareiss(M: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def matrix_tree_count(graph: tuple) -> int:
    """Number of spanning trees of the graph ``(n_vertices, edge list)``
    via the Laplacian cofactor (exact integers)."""
    n, edges = graph
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    minor = [row[1:] for row in L[1:]]
    return _det_bareiss(minor)
