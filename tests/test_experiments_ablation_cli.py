"""The head-to-head ablations print the same tables, byte for byte.

``python -m repro.experiments ablation-gtp ablation-faults
ablation-backhaul`` runs Magma against the monolithic-EPC baseline on GTP
termination (§3.1), fault domains (§3.3) and backhaul quality.  All of it
is simulated, so its stdout is deterministic.  The Magma arms of the GTP
and backhaul ablations are ``repro.deploy.build`` sites, provisioned
through the orchestrator; the fault-domain ablation's is a
``build(num_agws=4)`` fleet with no orchestrator.  Of the baseline cells only the satellite median moved
when the baseline took the AGW's access core (2.12 s before).

``ablation-headless ablation-quota`` (§3.2 headless operation, §3.4
double-spend bound) are pinned the same way, and so is ``ablation-sync``
(§3.4): CRUD deltas against Magma's own check-in sync.  Deltas lost on
the link, or to a restart of the volatile CRUD replica, leave it
diverged.  The AGW re-converges on every check-in, and its config
survives ``crash()`` / ``recover()``.  The CRUD arm runs in its own
simulator, so its loss draws are its own.
"""

from repro.experiments.__main__ import main

GOLDEN = """\
=== ablation-gtp ================================================
GTP-termination ablation: 12 UEs (50% fragile basebands), 60s backhaul outage
architecture                      sessions_lost  ues_stuck
--------------------------------  -------------  ---------
baseline EPC (GTP over backhaul)  12             6        
Magma (GTP terminated at AGW)     0              0        

=== ablation-faults =============================================
Fault-domain ablation: 4 sites x 5 UEs, one core element fails
architecture              users_affected  sessions_restored
------------------------  --------------  -----------------
Magma (one AGW per site)  25%             5                
baseline (one EPC)        100%            n/a              

=== ablation-backhaul ===========================================
Backhaul ablation (10 attaches per cell): attach latency and CSR by backhaul quality
backhaul   magma_latency_s  magma_csr_pct  baseline_latency_s  baseline_csr_pct
---------  ---------------  -------------  ------------------  ----------------
fiber      1.12             100            0.23                100             
microwave  1.12             100            0.30                100             
satellite  1.12             100            2.11                100             

"""


def test_ablation_cli_stdout_is_pinned(capsys):
    assert main(["ablation-gtp", "ablation-faults", "ablation-backhaul"]) == 0
    assert capsys.readouterr().out == GOLDEN


HEADLESS_QUOTA_GOLDEN = """\
=== ablation-headless ===========================================
Headless-operation ablation (120s partition)
behaviour                                    result                      
-------------------------------------------  ----------------------------
cached-subscriber attaches during partition  5/5                         
new subscriber usable during partition       no                          
provisioning latency after heal              6.0s (check-in interval 10s)

=== ablation-quota ==============================================
Double-spend ablation: unbilled bytes vs quota size
quota_bytes  agw_hops  consumed  charged  unbilled  bound     bound_holds
-----------  --------  --------  -------  --------  --------  -----------
100000       4         400000    0        400000    400000    yes        
1000000      4         4000000   0        4000000   4000000   yes        
10000000     4         40000000  0        40000000  40000000  yes        

"""


def test_headless_and_quota_ablation_stdout_is_pinned(capsys):
    assert main(["ablation-headless", "ablation-quota"]) == 0
    assert capsys.readouterr().out == HEADLESS_QUOTA_GOLDEN


SYNC_GOLDEN = """\
=== ablation-sync ===============================================
State-sync ablation (200 config ops over a lossy link; divergent keys, lower is better)
link_loss  crud  crud_after_restart  desired  desired_after_restart
---------  ----  ------------------  -------  ---------------------
0%         0     44                  0        0                    
1%         0     44                  0        0                    
5%         0     44                  0        0                    
20%        8     44                  0        0                    

"""


def test_state_sync_ablation_stdout_is_pinned(capsys):
    assert main(["ablation-sync"]) == 0
    assert capsys.readouterr().out == SYNC_GOLDEN
