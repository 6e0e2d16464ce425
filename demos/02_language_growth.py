"""Count admissible words exactly and watch the entropy estimates.

Two counting routes exist on purpose: a naive sweep over all binary
words and a clique counter memoized up to translation.  They must agree
wherever both run.
"""

from spacelab import build_pset, count_words, entropy_profile, max_ones
from spacelab.psets import Complement, Multiples, Squares

GRID = [4, 8, 12, 16, 20, 24]


def describe(name, spec, horizon=64):
    view = build_pset(spec, horizon)
    profile = entropy_profile(view, GRID)
    print(name)
    print("  n    c(n)       h(n)     omega  omega/n")
    for row in profile.rows:
        print(f"  {row.n:>2} {row.count:>9} {row.entropy:>9.5f} "
              f"{row.omega:>5}  {row.omega_over_n}")
    print()
    return view


evens = describe("evens (positive entropy)", Multiples(k=2))
describe("odds (entropy decaying)", Complement(of=Multiples(k=2)))
describe("squares (sparse)", Squares())

# cross-check the two counting routes on a small window
for n in range(13):
    naive = count_words(evens, n, mode="naive")
    fast = count_words(evens, n, mode="optimized")
    assert naive == fast
print("naive and optimized counts agree for evens up to n = 12")

# the witness behind the omega column
omega, config = max_ones(evens, 12)
print(f"densest even-spaced word of length 12: {config.word()} "
      f"({omega} ones at {config.ones})")
