"""README's Python examples run as written.

The examples read ``reqs.prccsl`` and ``run.csv`` from the working
directory; here the spec is the bundled corpus written with a byte order
mark and CRLF line ends, as an editor may save it, and the trace is a
simulated 2000-step CSV.  The blocks run in order in one namespace, since
the last one uses the relations the first one builds.
"""

import re
from importlib import resources
from pathlib import Path

from prccsl import AVParams, parse, simulate, write_trace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    corpus = resources.files("prccsl").joinpath("data", "av_requirements.prccsl").read_bytes()
    (tmp_path / "reqs.prccsl").write_bytes(b"\xef\xbb\xbf" + corpus.replace(b"\n", b"\r\n"))
    write_trace(simulate(AVParams(steps=2000, seed=3)), tmp_path / "run.csv")
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [rel.id for rel in parse(corpus).relations]
    assert len(printed) == 36
    assert len(namespace["trace"]) == 2000
