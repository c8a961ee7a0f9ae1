package teamwork

import (
	"math"
	"testing"

	"pblparallel/internal/cohort"
	"pblparallel/internal/pbl"
	"pblparallel/internal/teams"
)

func sampleTeam(t testing.TB) teams.Team {
	t.Helper()
	c, err := cohort.Generate(cohort.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := teams.FormBalanced(c, teams.PaperConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return f.Teams[0]
}

func TestChannelNamesAndRoles(t *testing.T) {
	if len(Channels) != 4 {
		t.Fatal("four technologies required")
	}
	for _, ch := range Channels {
		if ch.String() == "" || ch.Role() == "unknown" {
			t.Fatalf("channel %d incomplete", ch)
		}
	}
	if Channel(99).String() == "" || Channel(99).Role() != "unknown" {
		t.Fatal("out-of-range channel")
	}
	if Slack.String() != "Slack" || GoogleDocs.String() != "Google Docs" {
		t.Fatal("names")
	}
}

func TestSimulateTeamActivityDeterministic(t *testing.T) {
	tm := sampleTeam(t)
	a, err := SimulateTeamActivity(tm, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTeamActivity(tm, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic simulation")
	}
	if len(a.Events) == 0 {
		t.Fatal("no events generated")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("event mismatch")
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := SimulateTeamActivity(tm, 0, 1); err == nil {
		t.Fatal("0 weeks accepted")
	}
	if _, err := SimulateTeamActivity(teams.Team{}, 5, 1); err == nil {
		t.Fatal("empty team accepted")
	}
}

func TestLogAggregations(t *testing.T) {
	tm := sampleTeam(t)
	log, err := SimulateTeamActivity(tm, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	part := log.Participation()
	if len(part) == 0 {
		t.Fatal("no participation")
	}
	total := 0.0
	for _, p := range part {
		if p < 0 || p > 1 {
			t.Fatalf("share %v", p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v", total)
	}
	// Every member appears on every channel over 15 weeks.
	for _, ch := range Channels {
		counts := log.CountBy(ch)
		if ch == YouTube {
			continue // rare events: not guaranteed per member
		}
		if len(counts) != tm.Size() {
			t.Fatalf("%v activity covers %d of %d members", ch, len(counts), tm.Size())
		}
	}
	for _, m := range tm.Members {
		if _, ok := part[m.ID]; !ok {
			t.Fatalf("member %d has no participation share", m.ID)
		}
	}
	if len(part) != tm.Size() {
		t.Fatalf("%d active students", len(part))
	}
}

func TestEventKindFollowsChannel(t *testing.T) {
	want := map[Channel]EventKind{Slack: EventMessage, GitHub: EventCommit, GoogleDocs: EventDocEdit, YouTube: EventVideoCut}
	for ch, kind := range want {
		if got := (Event{Channel: ch}).Kind(); got != kind {
			t.Fatalf("%v event kind %q, want %q", ch, got, kind)
		}
	}
}

// The log is sized once from the per-draw bound, so the append loop
// never regrows it.
func TestSimulateSizesEventsOnce(t *testing.T) {
	tm := sampleTeam(t)
	for _, weeks := range []int{1, 15} {
		log, err := SimulateTeamActivity(tm, weeks, 4)
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for _, m := range tm.Members {
			for _, ch := range Channels {
				bound += int(baseRate(ch)*memberRate(m.Aptitude)) + 1
			}
		}
		if cap(log.Events) != bound*weeks {
			t.Fatalf("%d weeks: %d events in cap %d, want cap %d", weeks, len(log.Events), cap(log.Events), bound*weeks)
		}
	}
}

func TestEmptyLogParticipation(t *testing.T) {
	l := &Log{}
	if l.Participation() != nil {
		t.Fatal("empty log should return nil")
	}
}

func TestPeerRatingFormValidate(t *testing.T) {
	tm := sampleTeam(t)
	ids := make([]int, tm.Size())
	for i, m := range tm.Members {
		ids[i] = m.ID
	}
	good := PeerRatingForm{Assignment: 1, Rater: ids[0], Ratings: map[int]int{}}
	for _, id := range ids[1:] {
		good.Ratings[id] = 4
	}
	if err := good.Validate(tm); err != nil {
		t.Fatal(err)
	}
	// Self-rating.
	bad := PeerRatingForm{Assignment: 1, Rater: ids[0], Ratings: map[int]int{ids[0]: 5}}
	for _, id := range ids[1 : len(ids)-1] {
		bad.Ratings[id] = 4
	}
	if err := bad.Validate(tm); err == nil {
		t.Fatal("self-rating accepted")
	}
	// Non-member rater.
	if err := (PeerRatingForm{Rater: -99}).Validate(tm); err == nil {
		t.Fatal("outsider rater accepted")
	}
	// Off-scale score.
	offScale := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{}}
	for i, id := range ids[1:] {
		offScale.Ratings[id] = 4
		if i == 0 {
			offScale.Ratings[id] = 6
		}
	}
	if err := offScale.Validate(tm); err == nil {
		t.Fatal("off-scale rating accepted")
	}
	// Incomplete coverage.
	short := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{ids[1]: 3}}
	if err := short.Validate(tm); err == nil && tm.Size() > 2 {
		t.Fatal("incomplete form accepted")
	}
	// Rating a non-member.
	outsider := PeerRatingForm{Rater: ids[0], Ratings: map[int]int{}}
	for _, id := range ids[1 : len(ids)-1] {
		outsider.Ratings[id] = 4
	}
	outsider.Ratings[-5] = 4
	if err := outsider.Validate(tm); err == nil {
		t.Fatal("non-member ratee accepted")
	}
}

func TestAggregateRatings(t *testing.T) {
	tm := sampleTeam(t)
	log, err := SimulateTeamActivity(tm, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	forms, err := RatingsFromActivity(tm, log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != tm.Size() {
		t.Fatalf("%d forms", len(forms))
	}
	avgs, err := AggregateRatings(tm, forms)
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != tm.Size() {
		t.Fatalf("%d members rated", len(avgs))
	}
	for id, avg := range avgs {
		if avg < 1 || avg > 5 {
			t.Fatalf("member %d average %v", id, avg)
		}
	}
}

func TestAggregateRejectsInvalidForm(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := AggregateRatings(tm, []PeerRatingForm{{Rater: -1}}); err == nil {
		t.Fatal("invalid form accepted")
	}
}

func TestRatingsFromActivityValidation(t *testing.T) {
	tm := sampleTeam(t)
	if _, err := RatingsFromActivity(tm, nil, 1); err == nil {
		t.Fatal("nil log accepted")
	}
	if _, err := RatingsFromActivity(tm, &Log{}, 1); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestCooperationFromRating(t *testing.T) {
	cases := []struct {
		avg  float64
		want pbl.Cooperation
	}{
		{1.0, pbl.CoopNone}, {1.9, pbl.CoopNone},
		{2.0, pbl.CoopPartial}, {2.9, pbl.CoopPartial},
		{3.0, pbl.CoopFull}, {5.0, pbl.CoopFull},
	}
	for _, c := range cases {
		if got := CooperationFromRating(c.avg); got != c.want {
			t.Fatalf("CooperationFromRating(%v) = %v, want %v", c.avg, got, c.want)
		}
	}
}

func TestGroundRulesCoverNorms(t *testing.T) {
	rules := GroundRules()
	for _, key := range []string{
		"work norms", "facilitator norms", "communication norms",
		"meeting norms", "handling difficult behavior", "handling group problems",
	} {
		if len(rules[key]) == 0 {
			t.Fatalf("missing %q", key)
		}
	}
}

func TestHigherAptitudeEarnsMoreActivity(t *testing.T) {
	tm := sampleTeam(t)
	// Force a wide aptitude split for a deterministic check.
	for i := range tm.Members {
		tm.Members[i].Aptitude = -1.5
	}
	tm.Members[0].Aptitude = 2.0
	log, err := SimulateTeamActivity(tm, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	part := log.Participation()
	best := tm.Members[0].ID
	for _, m := range tm.Members[1:] {
		if part[best] <= part[m.ID] {
			t.Fatalf("high-aptitude member %d share %v not above member %d share %v",
				best, part[best], m.ID, part[m.ID])
		}
	}
}
