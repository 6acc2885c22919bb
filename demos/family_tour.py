"""A tour of the solved graph families: each family solver next to the
exhaustive engine on sizes small enough to check live.

Run:  python3 demos/family_tour.py
"""

import random

from p3game import (Graph, Variant, Verdict, component_free_values,
                    connected_block_values, connected_cycle_values, decide,
                    ladder_connected_values, make_caterpillar, make_cycle,
                    make_ladder, make_path, make_star, mex, random_chordal,
                    random_cograph)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def free_verdict(g):
    """The free game's verdict, read off the value after each opening."""
    return Verdict.from_openings(component_free_values(g))


def main():
    banner("paths")
    print("n:         ", " ".join("%2d" % n for n in range(1, 13)))
    print("connected: ", " ".join(
        "%2d" % mex(connected_block_values(make_path(n)))
        for n in range(1, 13)))
    print("free:      ", " ".join(
        "%2d" % mex(component_free_values(make_path(n)))
        for n in range(1, 13)))
    print("connected: first wins every path except n = 2, with value 2")
    print("exactly when n = 2 (mod 3), from the block solver that also")
    print("solves trees; the free values are heaps of the octal game")
    print("Officers, which has no known closed form.")

    banner("cycles")
    print("n:         ", " ".join("%2d" % n for n in range(3, 13)))
    print("connected: ", " ".join("%2d" % mex(connected_cycle_values(n))
                                  for n in range(3, 13)))
    print("free:      ", " ".join(
        "%2d" % mex(component_free_values(make_cycle(n)))
        for n in range(3, 13)))
    print("connected: first player wins exactly when n = 2 (mod 3);")
    print("free: even cycles fall to mirroring, and an odd one is a first")
    print("win exactly when the Officers heap of n - 1 is worth 0, which")
    print("is sporadic (n = 5, 13, 21, ...).")

    banner("stars and ladders")
    wins = [free_verdict(make_star(t)).winner.value for t in range(0, 7)]
    print("star with t feet, free game, t = 0..6:", " ".join(wins))
    wins = [Verdict.from_openings(ladder_connected_values(n)).winner.value
            for n in range(1, 8)]
    print("ladder with n rungs, connected game, n = 1..7:", " ".join(wins))
    print("ladder with 6 rungs, value after each opening, by rail:")
    values = ladder_connected_values(6)
    print("  ", " ".join(map(str, values[:6])))
    print("  ", " ".join(map(str, values[6:])))
    print("every opening is worth n mod 3 when that is 1 or 2; when 3")
    print("divides n, the corners are worth 0 and the rest 3, so the first")
    print("player wins exactly when 2n, the vertex count, is a multiple of")
    print("six, by opening in a corner.")

    banner("a caterpillar, a chordal graph, a cograph and a wheel, "
           "against the engine")
    rng = random.Random(7)

    # trees and chordal graphs share one solver over their blocks
    feet = (0, 2, 1, 0, 0)
    chordal = random_chordal(14, rng)
    for name, g in (("caterpillar with feet %s" % (feet,),
                     make_caterpillar(feet)),
                    ("random chordal graph on %d vertices" % chordal.n,
                     chordal)):
        v = Verdict.from_openings(connected_block_values(g))
        print("%s: block solver %s (value %d), same verdict as the engine? %s"
              % (name, v.winner.value, v.grundy,
                 v == decide(g, Variant.CONNECTED)))

    cg = random_cograph(rng.randint(1, 8), rng)
    print("random cograph on %d vertices: solver %s, engine %s"
          % (cg.n, free_verdict(cg).winner.value,
             decide(cg, Variant.FREE).winner.value))

    # the join rule reads only the component sizes of the two sides, so
    # a hub over C_6 (with an induced P_4, not a cograph) solves too
    wheel = Graph(7, [(i, (i + 1) % 6) for i in range(6)]
                  + [(6, i) for i in range(6)])
    print("wheel W6, a join that is not a cograph: join rule %s, engine %s"
          % (free_verdict(wheel).winner.value,
             decide(wheel, Variant.FREE).winner.value))

    banner("a full engine verdict")
    for n in (4, 5, 6):
        v = decide(make_ladder(n), Variant.CONNECTED)
        tail = "" if v.witness is None else ", best opening %d" % v.witness
        print("ladder n=%d connected: %s wins, value %d%s"
              % (n, v.winner.value, v.grundy, tail))


if __name__ == "__main__":
    main()
