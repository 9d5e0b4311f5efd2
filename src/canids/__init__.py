"""CAN-bus intrusion detection with windowed message graphs and a small GCN.

Pipeline: parse or synthesize CAN traffic (can_log, traffic_synth), slice it
into 200-message windows and build degree-featured message graphs
(graph_builder), classify each window with a two-layer graph convolution
network trained by hand-derived backprop (gcn, kernel), and report detection
metrics per attack scenario (evaluate). The cli module wires the steps into
the `canids` command, and detect streams verdicts window by window.
"""

from .can_log import (
    AttackKind,
    CanFrame,
    ParseReport,
    load_log,
    parse_line,
    parse_log,
    read_frames,
    save_log,
    serialize_frame,
)
from .detect import Detector, Verdict
from .evaluate import (
    PAPER_TARGETS,
    SCENARIOS,
    ConfusionMatrix,
    MetricsReport,
    confusion,
    metrics,
    scenario_report,
)
from .gcn import (
    EpochRecord,
    GcnParams,
    TrainConfig,
    backward,
    bce_loss,
    forward,
    init_params,
    load_params,
    predict,
    predict_many,
    save_params,
    train,
)
from .graph_builder import (
    ATTACK_FREE,
    ATTACKED,
    GraphBatch,
    MessageGraph,
    SlidingGraph,
    batch_graphs,
    build_graph,
    build_windows,
    conv_adjacency,
    dump_graphs,
    graphs_from_frames,
    load_graphs,
    node_features,
)
from .kernel import make_rng
from .traffic_synth import (
    AttackSpec,
    LabeledStream,
    NormalTrafficSpec,
    StreamManifest,
    default_id_pool,
    generate_normal,
    inject,
    inject_dos,
    inject_fuzzy,
    inject_replay,
    inject_spoofing,
    mix_attacks,
)

__version__ = "0.1.0"
