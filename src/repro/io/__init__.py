"""Input processing (paper §3.2).

Three formats are supported:

* **BIF** — the Bayesian Interchange Format, via a full lexer + recursive
  descent parser for its context-free grammar (:mod:`repro.io.bif`);
* **XML-BIF** — its XML sibling (:mod:`repro.io.xmlbif`);
* **MTX dual-file** — the paper's contribution: a Matrix-Market-derived
  pair of node/edge files that streams in bounded chunks and scales to graphs
  of hundreds of millions of edges (:mod:`repro.io.mtx`).
"""

from repro.io.mtx import read_mtx_graph, write_mtx_graph, MtxFormatError
from repro.io.bif import parse_bif, parse_bif_file, BifSyntaxError, write_bif
from repro.io.xmlbif import parse_xmlbif, parse_xmlbif_file, write_xmlbif
from repro.io.network import BayesianNetwork, Variable, Cpt, network_to_belief_graph
from repro.io.detect import detect_format, load_graph
from repro.io.scan import scan_mtx_stats, MtxStats

__all__ = [
    "read_mtx_graph",
    "write_mtx_graph",
    "MtxFormatError",
    "parse_bif",
    "parse_bif_file",
    "write_bif",
    "BifSyntaxError",
    "parse_xmlbif",
    "parse_xmlbif_file",
    "write_xmlbif",
    "BayesianNetwork",
    "Variable",
    "Cpt",
    "network_to_belief_graph",
    "detect_format",
    "load_graph",
    "scan_mtx_stats",
    "MtxStats",
]
