"""RL004 fixture: emissions outside the body of the active guard."""


def on_rule_installed(sim, switch, xid):
    ins = sim.instruments
    ins.rule("installed", sim.now, switch.name, xid)


def on_fault(sim, detail):
    sim.instruments.fault(sim.now, "link", detail)


def before_update(sim):
    ins = sim.instruments
    ins.phase("update")


def on_disarmed_fault(sim, detail):
    ins = sim.instruments
    if not ins.active:
        ins.fault(sim.now, "link", detail)


def on_else_fault(sim, detail):
    ins = sim.instruments
    if ins.active:
        pass
    else:
        ins.fault(sim.now, "link", detail)
