"""The demos run end to end and print the verdicts the engine gives."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_quickstart_runs(capsys):
    lines = run_demo("quickstart.py", capsys)
    assert "connected game: first wins, value 1, best opening 0" in lines
    assert lines[-1] == "no moves left; the player to move (second) loses."


def test_family_tour_runs(capsys):
    lines = run_demo("family_tour.py", capsys)
    # the block solver agrees with the engine on a tree and a chordal graph
    agree = [line for line in lines
             if line.endswith("same verdict as the engine? True")]
    assert [line.split(":")[0] for line in agree] == [
        "caterpillar with feet (0, 2, 1, 0, 0)",
        "random chordal graph on 14 vertices"]
    assert "ladder n=6 connected: first wins, value 1, best opening 0" in lines
    # a wheel holds an induced P_4, and the join rule still solves it
    assert "wheel W6, a join that is not a cograph: join rule second, " \
        "engine second" in lines
    # paths through the block solver, stars through the join rule
    assert "connected:   1  0  1  1  2  1  1  2  1  1  2  1" in lines
    assert "star with t feet, free game, t = 0..6: first second first " \
        "second first second first" in lines
